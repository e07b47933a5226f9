"""The BetrFS "northbound" layer (§2.2).

Translates VFS operations into key-value operations on the two
B-epsilon-tree indexes:

* metadata index: full path -> packed stat;
* data index: (full path, 4 KiB block number) -> page.

Every paper optimization that lives at this boundary is implemented
behind its feature flag: conditional logging (§3.3), directory-wide
range deletes + redundant-delete elision (§4), readdir cache filling
(§4 +DC), page sharing (§6), and the tree read-ahead hint (§3.2).

Every rename, on a plain mount or across a sharded one's volumes, is
one log record (:func:`rename_record`) that moves keys, not bytes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.betrfs.versions import BetrFSFeatures
from repro.core.env import DATA, META, TREE_FILES, BatchOp, KVEnv
from repro.core.keys import (
    data_key,
    data_key_block,
    dir_children_prefix,
    dir_subtree_range,
    file_blocks_prefix,
    file_blocks_range,
    meta_key,
    prefix_range,
    prefix_successor,
)
from repro.core.messages import PageFrame, value_bytes
from repro.core.wal import OP_DELETE, OP_INSERT, OP_MOVE, OP_RANGE_DELETE
from repro.vfs.inode import FileKind, Stat
from repro.vfs.vfs import FileSystemBackend

PAGE_SIZE = 4096


def rename_record(
    src: str,
    dst: str,
    stat: Stat,
    volumes: Sequence["BetrFSNorthbound"],
    owner: Callable[[str], "BetrFSNorthbound"],
) -> List[BatchOp]:
    """The ops of one rename, for :meth:`KVEnv.apply_batch` to log as one
    record: the entry on ``owner(dst)``'s volume, the delete of the old
    one on ``owner(src)``'s, and an ``OP_MOVE`` of a file's blocks (keys,
    never bytes).  A directory adds each child's entry where its new path
    routes, a move of each child file's blocks, and one subtree range
    delete on each of ``volumes`` that holds children."""
    ops: List[BatchOp] = []

    def move(old: str, new: str, moved: Stat, source: "BetrFSNorthbound") -> None:
        dest = owner(new)
        ops.append((OP_INSERT, dest.meta, meta_key(new), moved.pack(), 0))
        if old == src:  # children go with their subtree's range delete
            ops.append((OP_DELETE, source.meta, meta_key(old), b"", 0))
        if moved.kind is FileKind.FILE and moved.size > 0:
            ops.append((
                OP_MOVE, source.data, file_blocks_prefix(old), file_blocks_prefix(new), dest.data
            ))

    move(src, dst, stat, owner(src))
    if stat.kind is FileKind.DIR:
        lo, hi = dir_subtree_range(src)
        for nb in volumes:
            rows = nb.env.range_query(nb.meta, lo, hi)
            for key, value in rows:
                child = key.decode("utf-8")
                move(child, dst + child[len(src):], Stat.unpack(value_bytes(value)), nb)
            if rows:
                ops.append((OP_RANGE_DELETE, nb.meta, lo, hi, 0))
    return ops


class BetrFSNorthbound(FileSystemBackend):
    """FileSystemBackend over one volume's tree pair of a
    :class:`~repro.core.env.KVEnv`."""

    supports_blind_patch = True

    #: Traced when the observability scope traces.
    SPANS = {
        "write_page": (
            "nb.write_page", "northbound",
            lambda nb, path, idx, frame, nbytes: {"bytes": nbytes},
        ),
        "read_pages": (
            "nb.read_pages", "northbound",
            lambda nb, path, idx, count, seq_hint: {"pages": count},
        ),
    }

    def __init__(
        self, env: KVEnv, features: BetrFSFeatures, volume: int = 0
    ) -> None:
        self.env = env
        self.features = features
        #: This volume's tree pair in ``env``.
        self.meta = volume * len(TREE_FILES) + META
        self.data = volume * len(TREE_FILES) + DATA
        self.readdir_fills_caches = features.dentry_cache
        self.trusts_nlink = features.range_coalesce
        self.page_sharing = features.page_sharing
        #: Deferred (conditionally logged) creates not yet in the tree.
        self.deferred_creates = 0
        obs = getattr(env, "obs", None)
        if obs is not None:
            obs.registry.gauge(
                "northbound.deferred_creates",
                layer="northbound",
                fn=lambda: self.deferred_creates,
            )
            obs.instrument(self, self.SPANS)

    def format(self) -> None:
        """Make a fresh volume a file system: the root directory's
        metadata entry (a recovered volume already holds one)."""
        root = Stat(kind=FileKind.DIR, nlink=2, mode=0o755)
        self.env.insert(self.meta, meta_key("/"), root.pack())

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> Optional[Stat]:
        value = self.env.get(self.meta, meta_key(path))
        if value is None:
            return None
        return Stat.unpack(value_bytes(value))

    def create(self, path: str, stat: Stat) -> Optional[int]:
        key = meta_key(path)
        if self.features.conditional_logging:
            # §3.3: log the create, pin the WAL section, and let the
            # VFS hold the dirty inode; the tree insert happens at
            # inode write-back (set_stat), batching existence checks
            # away from the hot path.
            self.env.wal.append(OP_INSERT, self.meta, key, stat.pack())
            section = self.env.wal.current_section()
            self.env.wal.pin_section(section)
            self.env.clock.cpu(self.env.costs.cl_pin)
            self.deferred_creates += 1
            return section
        self.env.insert(self.meta, key, stat.pack())
        return None

    def set_stat(
        self, path: str, stat: Stat, pinned_section: Optional[int]
    ) -> None:
        # Logged even after a conditionally logged create: the log
        # holds only the create-time stat, and an fsync makes this one
        # durable.
        self.env.insert(self.meta, meta_key(path), stat.pack())
        if pinned_section is not None:
            self.env.wal.unpin_section(pinned_section)
            self.deferred_creates -= 1

    def unlink(self, path: str, stat: Stat, delete_issued: bool) -> None:
        self.env.delete(self.meta, meta_key(path))
        if stat.kind is FileKind.FILE and stat.size > 0:
            self.env.range_delete(self.data, *file_blocks_range(path))

    def evict_inode(self, path: str, stat: Stat, delete_issued: bool) -> None:
        """The VFS inode-teardown hook.

        Baseline BetrFS issued a *second* deletion message here (§4,
        "Removing redundant messages"); the +RG flag on the in-memory
        inode suppresses it.
        """
        if self.features.range_coalesce:
            return
        if delete_issued and stat.kind is FileKind.FILE:
            self.env.range_delete(self.data, *file_blocks_range(path))

    def rmdir(self, path: str, known_empty: bool) -> None:
        self.env.delete(self.meta, meta_key(path))
        if self.features.range_coalesce:
            # §4: issue a directory-wide range delete.  The directory
            # is empty, so this deletes no live data — its purpose is
            # to let PacMan gobble the stale per-file range deletes
            # accumulated in the node buffers.
            self.env.range_delete(self.meta, *dir_subtree_range(path))
            self.env.range_delete(
                self.data, *prefix_range(dir_children_prefix(path))
            )

    def is_dir_empty(self, path: str) -> bool:
        return self.env.trees[self.meta].empty_range(*dir_subtree_range(path))

    def rename(self, src: str, dst: str, stat: Stat) -> None:
        self.env.apply_batch(rename_record(src, dst, stat, [self], lambda path: self))

    # ------------------------------------------------------------------
    # readdir: cursor-seek scan over the metadata index
    # ------------------------------------------------------------------
    def readdir(self, path: str) -> List[Tuple[str, Stat]]:
        """Direct children of ``path``.

        Full-path keys place a directory's subtree contiguously, with
        each child's own subtree immediately after the child.  The scan
        seeks from child to child, skipping subtrees.
        """
        prefix = dir_children_prefix(path)  # b".../"
        lo, hi = prefix_range(prefix)
        out: List[Tuple[str, Stat]] = []
        cursor = lo
        tree = self.env.trees[self.meta]
        # getdents-style chunked cursor: scan runs of direct children
        # in one range query, and skip a child's whole subtree with a
        # single seek when the scan enters it.
        CHUNK = 64
        while True:
            rows = tree.range_query(cursor, hi, limit=CHUNK)
            if not rows:
                break
            advanced = False
            for key, value in rows:
                child_path = key.decode("utf-8")
                name = child_path[len(prefix) :]
                if not name:
                    # The directory's own entry (only possible for "/",
                    # whose children-prefix equals its own key).
                    cursor = key + b"\x00"
                    advanced = True
                    break
                if "/" in name:
                    # Entered a subdirectory's subtree: skip past it.
                    name = name.split("/", 1)[0]
                    cursor = prefix_successor(prefix + name.encode() + b"/")
                    advanced = True
                    break
                out.append((name, Stat.unpack(value_bytes(value))))
            if not advanced:
                if len(rows) < CHUNK:
                    break
                cursor = rows[-1][0] + b"\x00"
        return out

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def write_page(
        self, path: str, idx: int, frame: PageFrame, nbytes: int
    ) -> bool:
        key = data_key(path, idx)
        if self.features.page_sharing:
            self.env.insert(self.data, key, frame, by_ref=True)
            return True
        self.env.insert(self.data, key, frame, by_ref=False)
        return False

    def write_patch(self, path: str, idx: int, offset: int, data: bytes) -> None:
        self.env.patch(self.data, data_key(path, idx), offset, data)

    def read_pages(
        self, path: str, idx: int, count: int, seq_hint: bool
    ) -> List[PageFrame]:
        if count == 1 and not seq_hint:
            # A 4 KiB pread (Linux's readpage): one point query.
            values = [self.env.get(self.data, data_key(path, idx))]
        else:
            # Anything larger is one range query, a cursor over the
            # file's blocks; the hint makes it read leaves whole and
            # prefetch the next (§3.2).  A block the tree lacks is a hole.
            values = [None] * count
            for key, value in self.env.range_query(
                self.data, data_key(path, idx), data_key(path, idx + count), seq_hint=seq_hint
            ):
                values[data_key_block(key) - idx] = value
        out: List[PageFrame] = []
        for value in values:
            if value is None:
                out.append(PageFrame(b"\x00" * PAGE_SIZE))
            elif isinstance(value, PageFrame):
                if self.features.page_sharing:
                    value.get()
                    out.append(value)
                else:
                    self.env.clock.cpu(self.env.costs.memcpy(len(value.data)))
                    out.append(PageFrame(value.data))
            else:
                data = value_bytes(value)
                if not self.features.page_sharing:
                    self.env.clock.cpu(self.env.costs.memcpy(len(data)))
                out.append(PageFrame(data))
        return out

    # ------------------------------------------------------------------
    # Durability & caches
    # ------------------------------------------------------------------
    def fsync(self, path: str) -> None:
        self.env.sync()

    def sync(self) -> None:
        self.env.sync()

    def drop_caches(self) -> None:
        self.env.checkpoint()
        for tree in self.env.trees:
            for owner, node in list(self.env.cache.all_nodes()):
                if owner is tree:
                    tree.release_node_memory(node)
        self.env.cache.clear()
