"""One-mount :class:`FileSystemBackend` routing over N northbounds.

The VFS sees a single file system; every operation is routed to the
volume that owns the path (per the :class:`~repro.shard.map.ShardMap`)
and executed by that volume's own
:class:`~repro.betrfs.northbound.BetrFSNorthbound`.  A directory's
children all live on the one shard its path hashes to, so ``readdir``
and ``is_dir_empty`` ask that shard alone.  Only a ``rename`` across
shards genuinely spans volumes: it is delegated to the
:meth:`~repro.shard.env.ShardedEnv.two_phase` intent protocol so a
crash at any point leaves either the old name or the new one, never
both halves.

Routing decisions are counted per shard (``loads``) and exposed as
``repro.obs`` gauges by the mount, giving the load/imbalance view the
scale-out benchmarks report.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.betrfs.northbound import BetrFSNorthbound
from repro.core.env import DATA, META
from repro.core.keys import (
    dir_subtree_range,
    file_blocks_range,
    meta_key,
    rebase_data_key,
)
from repro.core.messages import PageFrame, value_bytes
from repro.shard.env import Delete, Insert, ShardedEnv
from repro.vfs.inode import FileKind, Stat
from repro.vfs.vfs import FileSystemBackend


class ShardedBackend(FileSystemBackend):
    """Route VFS operations to the shard owning each path."""

    def __init__(
        self, backends: List[BetrFSNorthbound], senv: ShardedEnv
    ) -> None:
        if len(backends) != senv.map.shards:
            raise ValueError("one northbound per shard required")
        first = backends[0]
        self.readdir_fills_caches = first.readdir_fills_caches
        self.trusts_nlink = first.trusts_nlink
        self.page_sharing = first.page_sharing
        self.supports_blind_patch = first.supports_blind_patch
        self.backends = backends
        self.senv = senv
        self.map = senv.map
        #: Operations routed to each shard (the imbalance gauges).
        self.loads = [0] * self.map.shards
        #: Renames that crossed a shard boundary (two-phase batches).
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
        self.senv.sync()

    def drop_caches(self) -> None:
        for backend in self.backends:
            backend.drop_caches()

    # ------------------------------------------------------------------
    # Rename: same-shard delegates; cross-shard runs the intent protocol.
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
            self._rename_file_cross(src, dst, stat, source, dest)

    def _rename_file_cross(
        self, src: str, dst: str, stat: Stat, source: int, dest: int
    ) -> None:
        inserts: List[Insert] = [(dest, META, meta_key(dst), stat.pack())]
        deletes: List[Delete] = [(source, META, meta_key(src))]
        if stat.size > 0:
            lo, hi = file_blocks_range(src)
            for key, value in self.senv.envs[source].range_query(
                DATA, lo, hi
            ):
                inserts.append(
                    (dest, DATA, rebase_data_key(key, dst), value_bytes(value))
                )
                deletes.append((source, DATA, key))
        self.senv.two_phase(source, inserts, deletes)
        self.cross_renames += 1

    def _rename_tree_sharded(
        self, src: str, dst: str, stat: Stat, source: int
    ) -> None:
        """Directory rename: the subtree may span every shard, and each
        child re-routes by its *new* path, so the whole move is one
        multi-shard two-phase batch coordinated by the source entry's
        shard."""
        lo, hi = dir_subtree_range(src)
        dest = self.map.owner_of_entry(dst)
        inserts: List[Insert] = [(dest, META, meta_key(dst), stat.pack())]
        deletes: List[Delete] = [(source, META, meta_key(src))]
        prefix_len = len(src)
        for shard, env in enumerate(self.senv.envs):
            for key, value in env.range_query(META, lo, hi):
                child = key.decode("utf-8")
                new_path = dst + child[prefix_len:]
                packed = value_bytes(value)
                new_owner = self.map.owner_of_entry(new_path)
                inserts.append((new_owner, META, meta_key(new_path), packed))
                deletes.append((shard, META, key))
                child_stat = Stat.unpack(packed)
                if child_stat.kind is FileKind.FILE and child_stat.size > 0:
                    b_lo, b_hi = file_blocks_range(child)
                    for bkey, bval in env.range_query(DATA, b_lo, b_hi):
                        inserts.append(
                            (
                                new_owner,
                                DATA,
                                rebase_data_key(bkey, new_path),
                                value_bytes(bval),
                            )
                        )
                        deletes.append((shard, DATA, bkey))
        self.senv.two_phase(source, inserts, deletes)
        self.cross_renames += 1
