"""A sharded BetrFS mount: N volumes, one namespace, one log.

``make_sharded_betrfs("BetrFS v0.6", shards=8)`` is the ordinary
:class:`~repro.betrfs.filesystem.BetrFS` assembly asked for N volume
slots instead of one: the mount's one
:class:`~repro.betrfs.northbound.BetrFSNorthbound` routes each path to
its volume's tree pair.  Everything the volumes share — the clock, the
device, the allocator, the tree geometry, and the one Bε-tree
environment (log, superblock, checkpoint, node cache) — is shared
deliberately: volume I/O from different sessions interleaves on one
device timeline, which is exactly the overlap the scale-out benchmarks
measure.  The log names a tree in one byte, so a mount has at most
:data:`~repro.core.env.MAX_VOLUMES` volumes.

With ``shards=1`` this is the unsharded mount (same charge sequence,
same on-device layout), which the shard-invariant tests pin as
bit-identical.  Re-mounting a crash image (:meth:`ShardedBetrFS.crash`)
is the plain recovery: one superblock, one log replay.  Offline fsck
of the image lives with the walk itself:
:func:`repro.check.fsck.fsck_mount`.
"""

from __future__ import annotations

from typing import Optional

from repro.betrfs.filesystem import BetrFS, MountOptions, variant
from repro.betrfs.versions import BetrFSFeatures
from repro.core.env import MAX_VOLUMES
from repro.device.block import BlockDevice


class ShardedBetrFS(BetrFS):
    """One mounted namespace over N Bε-tree volumes on one log."""

    def __init__(
        self,
        features: BetrFSFeatures,
        opts: Optional[MountOptions] = None,
        shards: int = 4,
        image: Optional[BlockDevice] = None,
    ) -> None:
        if not features.use_sfl:
            raise ValueError(
                "sharding carves SFL volume slots; the ext4-backed "
                "variants cannot be sharded"
            )
        if shards > MAX_VOLUMES:
            raise ValueError(
                f"one log names at most {MAX_VOLUMES} volumes' tree pairs, "
                f"got {shards} shards"
            )
        self.shards = shards
        super().__init__(features, opts, volumes=shards, image=image)
        self.shard_map = self.backend.map
        # The gauges read the northbound, not the mount: a session's
        # scope must not keep the mount alive.
        gauge, backend = self.obs.registry.gauge, self.backend
        for i in range(shards):
            gauge(
                f"shard.load.{i:02d}",
                layer="shard",
                fn=lambda i=i: backend.loads[i],
            )
        gauge("shard.imbalance", layer="shard", fn=lambda: _imbalance(backend.loads))
        gauge(
            "shard.cross_renames",
            layer="shard",
            fn=lambda: backend.cross_renames,
        )

    def remount(self, image: BlockDevice) -> "ShardedBetrFS":
        return ShardedBetrFS(self.features, self.opts, self.shards, image=image)

    def load_imbalance(self) -> float:
        return _imbalance(self.backend.loads)


def _imbalance(loads) -> float:
    """max/mean of per-shard routed operations (1.0 = balanced)."""
    total = sum(loads)
    if total == 0:
        return 1.0
    return max(loads) * len(loads) / total


def make_sharded_betrfs(
    version: str = "BetrFS v0.6",
    opts: Optional[MountOptions] = None,
    shards: int = 4,
    mode: str = "hash",
) -> ShardedBetrFS:
    """Build a sharded mount of a named Table 3 variant."""
    # ``mode`` stays only because perfbench's replay passes mode="hash".
    if mode != "hash":
        raise ValueError(f"unknown shard mode {mode!r}: hash is the only policy")
    return ShardedBetrFS(variant(version), opts, shards=shards)
