"""One-mount :class:`FileSystemBackend` routing over N northbounds.

The VFS sees a single file system; every operation is routed to the
volume that owns the path (per the :class:`~repro.shard.map.ShardMap`)
and executed by that volume's own
:class:`~repro.betrfs.northbound.BetrFSNorthbound`.  A directory's
children all live on the one shard its path hashes to, so ``readdir``
and ``is_dir_empty`` ask that shard alone.  Only a ``rename`` across
shards genuinely spans volumes: its inserts and deletes go to the
device's one log as a single batch record
(:meth:`~repro.core.env.KVEnv.apply_batch`), so a crash at any point
leaves either the old name or the new one, never both halves.

Routing decisions are counted per shard (``loads``) and exposed as
``repro.obs`` gauges by the mount, giving the load/imbalance view the
scale-out benchmarks report.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.betrfs.northbound import BetrFSNorthbound
from repro.core.env import KVEnv
from repro.core.keys import (
    dir_subtree_range,
    file_blocks_range,
    meta_key,
    rebase_data_key,
)
from repro.core.messages import PageFrame, Value, value_bytes
from repro.core.wal import OP_DELETE, OP_INSERT
from repro.shard.map import ShardMap
from repro.vfs.inode import FileKind, Stat
from repro.vfs.vfs import FileSystemBackend

#: One op of a cross-shard batch (:meth:`KVEnv.apply_batch`).
Batched = Tuple[int, int, bytes, Value]


class ShardedBackend(FileSystemBackend):
    """Route VFS operations to the shard owning each path."""

    def __init__(self, backends: List[BetrFSNorthbound], smap: ShardMap) -> None:
        if len(backends) != smap.shards:
            raise ValueError("one northbound per shard required")
        first = backends[0]
        self.readdir_fills_caches = first.readdir_fills_caches
        self.trusts_nlink = first.trusts_nlink
        self.page_sharing = first.page_sharing
        self.supports_blind_patch = first.supports_blind_patch
        self.backends = backends
        #: The device's one environment, every volume's trees in it.
        self.env: KVEnv = first.env
        self.map = smap
        #: Operations routed to each shard (the imbalance gauges).
        self.loads = [0] * self.map.shards
        #: Renames that crossed a shard boundary (one batch record each).
        self.cross_renames = 0

    # ------------------------------------------------------------------
    def _nb(self, path: str) -> BetrFSNorthbound:
        shard = self.map.owner_of_entry(path)
        self.loads[shard] += 1
        return self.backends[shard]

    # ------------------------------------------------------------------
    # Single-shard operations: route and delegate.
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> Optional[Stat]:
        return self._nb(path).lookup(path)

    def create(self, path: str, stat: Stat) -> Optional[int]:
        return self._nb(path).create(path, stat)

    def set_stat(
        self, path: str, stat: Stat, pinned_section: Optional[int]
    ) -> None:
        self._nb(path).set_stat(path, stat, pinned_section)

    def unlink(self, path: str, stat: Stat, delete_issued: bool) -> None:
        self._nb(path).unlink(path, stat, delete_issued)

    def evict_inode(self, path: str, stat: Stat, delete_issued: bool) -> None:
        self._nb(path).evict_inode(path, stat, delete_issued)

    def rmdir(self, path: str, known_empty: bool) -> None:
        self._nb(path).rmdir(path, known_empty)

    def write_patch(
        self, path: str, idx: int, offset: int, data: bytes
    ) -> None:
        self._nb(path).write_patch(path, idx, offset, data)

    def write_page(
        self, path: str, idx: int, frame: PageFrame, nbytes: int
    ) -> bool:
        return self._nb(path).write_page(path, idx, frame, nbytes)

    def read_pages(
        self, path: str, idx: int, count: int, seq_hint: bool
    ) -> List[PageFrame]:
        return self._nb(path).read_pages(path, idx, count, seq_hint)

    def fsync(self, path: str) -> None:
        self._nb(path).fsync(path)

    # ------------------------------------------------------------------
    # Directory contents: the shard the children hash to
    # ------------------------------------------------------------------
    def readdir(self, path: str) -> List[Tuple[str, Stat]]:
        shard = self.map.owner_of_children(path)
        self.loads[shard] += 1
        return self.backends[shard].readdir(path)

    def is_dir_empty(self, path: str) -> bool:
        return self.backends[self.map.owner_of_children(path)].is_dir_empty(path)

    def sync(self) -> None:
        self.env.sync()

    def drop_caches(self) -> None:
        # Every northbound drops the one environment's whole cache.
        self.backends[0].drop_caches()

    # ------------------------------------------------------------------
    # Rename: same-shard delegates; cross-shard is one log record.
    # ------------------------------------------------------------------
    def rename(self, src: str, dst: str, stat: Stat) -> None:
        source = self.map.owner_of_entry(src)
        dest = self.map.owner_of_entry(dst)
        if stat.kind is FileKind.DIR:
            if self.map.shards == 1:
                self.loads[source] += 1
                self.backends[source].rename(src, dst, stat)
            else:
                self._rename_tree_sharded(src, dst, stat, source)
        elif source == dest:
            self.loads[source] += 1
            self.backends[source].rename(src, dst, stat)
        else:
            ops: List[Batched] = []
            self._move(ops, src, dst, stat, stat.pack(), self.backends[source])
            self.env.apply_batch(ops)
            self.cross_renames += 1

    def _rename_tree_sharded(
        self, src: str, dst: str, stat: Stat, source: int
    ) -> None:
        """Directory rename: the subtree may span every shard, and each
        child re-routes by its *new* path, so the whole move is one
        batch over every volume's trees."""
        ops: List[Batched] = []
        self._move(ops, src, dst, stat, stat.pack(), self.backends[source])
        lo, hi = dir_subtree_range(src)
        prefix_len = len(src)
        for nb in self.backends:
            for key, value in self.env.range_query(nb.meta, lo, hi):
                child = key.decode("utf-8")
                packed = value_bytes(value)
                self._move(
                    ops, child, dst + child[prefix_len:], Stat.unpack(packed),
                    packed, nb,
                )
        self.env.apply_batch(ops)
        self.cross_renames += 1

    def _move(
        self, ops: List[Batched], old: str, new: str, stat: Stat,
        packed: bytes, source: BetrFSNorthbound,
    ) -> None:
        """Append the batch ops that move entry ``old`` (``stat``, stored
        as ``packed`` on ``source``'s volume) and its blocks to ``new``
        on the volume that owns it."""
        dest = self.backends[self.map.owner_of_entry(new)]
        ops.append((OP_INSERT, dest.meta, meta_key(new), packed))
        ops.append((OP_DELETE, source.meta, meta_key(old), b""))
        if stat.kind is FileKind.FILE and stat.size > 0:
            lo, hi = file_blocks_range(old)
            for key, value in self.env.range_query(source.data, lo, hi):
                ops.append((OP_INSERT, dest.data, rebase_data_key(key, new), value))
                ops.append((OP_DELETE, source.data, key, b""))
