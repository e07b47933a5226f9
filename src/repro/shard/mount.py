"""A sharded BetrFS mount: N volumes, one namespace.

``make_sharded_betrfs("BetrFS v0.6", shards=8)`` is the ordinary
:class:`~repro.betrfs.filesystem.BetrFS` assembly asked for N volume
slots instead of one, with the VFS mounted on the
:class:`~repro.shard.backend.ShardedBackend` router over them.
Everything the volumes share — the clock, the device, the allocator,
the tree geometry — is shared deliberately: volume I/O from different
sessions interleaves on one device timeline, which is exactly the
overlap the scale-out benchmarks measure.

With ``shards=1`` this is the unsharded mount plus a router over its
one volume (same charge sequence, same on-device layout), which the
shard-invariant tests pin as bit-identical to the direct wiring.
Re-mounting a crash image (:meth:`ShardedBetrFS.crash`) recovers every
volume from its own log and then rolls surviving cross-shard intents
forward.  Offline fsck of every volume lives with the walk itself:
:func:`repro.check.fsck.fsck_mount`.
"""

from __future__ import annotations

from typing import Optional

from repro.betrfs.filesystem import BetrFS, MountOptions, variant
from repro.betrfs.versions import BetrFSFeatures
from repro.device.block import BlockDevice
from repro.shard.backend import ShardedBackend
from repro.shard.env import ShardedEnv
from repro.shard.map import ShardMap


class ShardedBetrFS(BetrFS):
    """One mounted namespace over N independent Bε-tree volumes."""

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
        self.shards = shards
        self.shard_map = ShardMap(shards)
        super().__init__(features, opts, volumes=shards, image=image)
        # The gauges read the router, not the mount: a session's scope
        # must not keep the mount alive.
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

    def _route(self, envs, backends):
        env = ShardedEnv(envs, self.shard_map)
        if self.recovered:
            # Every volume has replayed its own log; a cross-shard move
            # whose intent survived is now rolled forward.
            env.resolve_intents()
        return env, ShardedBackend(backends, env)

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
