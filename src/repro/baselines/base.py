"""The generic baseline file-system model.

A :class:`BaselineFS` is a block-mapping file system under the shared
VFS: it allocates real extents on the simulated device, stores real
bytes there, charges journal commits, metadata-block reads, and the
per-design write-back overheads described by its
:class:`~repro.baselines.params.BaselineParams`.

It is deliberately simpler than the B-epsilon-tree stack — the paper's
comparison only depends on the I/O *pattern* each baseline's design
class produces per workload (update-in-place random writes, CoW
amplification, journal commits, scattered metadata on cold scans).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.params import BaselineParams
from repro.check.errors import require
from repro.core.messages import PageFrame
from repro.device.block import BlockDevice
from repro.model.costs import CostModel
from repro.storage.journal import Journal
from repro.vfs.inode import FileKind, Stat
from repro.vfs.vfs import FileSystemBackend

PAGE_SIZE = 4096
MIB = 1024 * 1024

#: Reserved at the front of the device for metadata structures.
META_REGION = 1024 * MIB
#: Journal region inside the metadata region.
JOURNAL_SIZE = 128 * MIB
#: Large files grow in chunks of this many bytes (delayed allocation).
ALLOC_CHUNK = 4 * MIB
#: Allocation zone reserved per directory (block-group-style packing).
DIR_ZONE = 16 * MIB
#: Extent growth schedule: 1 page, then doubling up to ALLOC_CHUNK —
#: small files are packed densely inside their directory's zone.
ZONE_EXTENT_CAP = 1 * MIB


class BaselineFS(FileSystemBackend):
    """A parameterized conventional file system."""

    trusts_nlink = True  # conventional FSes answer rmdir from dir data

    def __init__(
        self, device: BlockDevice, costs: CostModel, params: BaselineParams
    ) -> None:
        self.device = device
        self.clock = device.clock
        self.costs = costs
        self.params = params
        self.journal = Journal(device, costs, 0, JOURNAL_SIZE)
        #: Authoritative namespace: path -> Stat.
        self._meta: Dict[str, Stat] = {"/": Stat(kind=FileKind.DIR, nlink=2)}
        #: Directory listings: dir path -> set of child names.
        self._children: Dict[str, Set[str]] = {"/": set()}
        #: File extents: path -> list of (start_page, dev_offset, pages).
        self._extents: Dict[str, List[Tuple[int, int, int]]] = {}
        #: Metadata blocks currently in the buffer cache (block ids).
        self._cached_meta: Set[str] = set()
        #: Data allocation cursor (zones are carved from here).
        self._cursor = META_REGION
        #: Per-directory allocation zones: dir -> (base, used).
        self._zones: Dict[str, Tuple[int, int]] = {}
        #: Synthetic metadata block placement cursor.
        self._meta_cursor = JOURNAL_SIZE
        self._meta_block_of: Dict[str, int] = {}
        #: Last written page per file (cold-open tracking).
        self._last_wb: Dict[str, int] = {}
        #: Device offset right after the last written-back page
        #: (cross-file sequential write-back detection).
        self._last_wb_end = -1
        #: In-flight read-ahead: path -> (start_idx, completion, pages).
        self._readahead: Dict[str, Tuple[int, object, int]] = {}
        self.stats_meta_reads = 0

    # ------------------------------------------------------------------
    # Metadata placement helpers
    # ------------------------------------------------------------------
    def _meta_block(self, key: str) -> int:
        """Synthetic placement of a metadata block.

        Hashed placement scatters metadata across the metadata region,
        so cold traversals pay honest random reads (inode tables,
        htree blocks and block pointers are not laid out in the order
        a scan visits them).
        """
        off = self._meta_block_of.get(key)
        if off is None:
            span = (META_REGION - JOURNAL_SIZE) // PAGE_SIZE
            slot = zlib.crc32(key.encode()) % span
            off = JOURNAL_SIZE + slot * PAGE_SIZE
            self._meta_block_of[key] = off
        return off

    def _read_meta_block(self, key: str) -> None:
        """Charge a cold metadata-block read (cached afterwards)."""
        if key in self._cached_meta:
            return
        off = self._meta_block(key)
        self.device.read(off, PAGE_SIZE)
        self._cached_meta.add(key)
        self.stats_meta_reads += 1

    def _charge_cold_lookup(self, path: str) -> None:
        for i in range(self.params.lookup_cold_reads):
            self._read_meta_block(f"inode:{path}:{i}")

    def _journal_meta(self, blocks: int = 1) -> None:
        for _ in range(blocks):
            self.journal.log_block()

    # ------------------------------------------------------------------
    # FileSystemBackend: namespace
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> Optional[Stat]:
        stat = self._meta.get(path)
        if stat is None:
            # A failed lookup still walks the on-disk directory.
            self._read_meta_block(f"dir:{self._parent(path)}")
            return None
        self._charge_cold_lookup(path)
        return stat.copy()

    @staticmethod
    def _parent(path: str) -> str:
        parent = path.rsplit("/", 1)[0]
        return parent or "/"

    @staticmethod
    def _name(path: str) -> str:
        return path.rsplit("/", 1)[1]

    def create(self, path: str, stat: Stat) -> bool:
        self.clock.cpu(self.params.create_cost)
        self._meta[path] = stat.copy()
        parent = self._parent(path)
        self._children.setdefault(parent, set()).add(self._name(path))
        if stat.kind is FileKind.DIR:
            self._children[path] = set()
        self._journal_meta(2)  # dirent block + inode block
        self._cached_meta.add(f"dir:{parent}")
        for i in range(self.params.lookup_cold_reads):
            self._cached_meta.add(f"inode:{path}:{i}")
        return False

    def set_stat(self, path: str, stat: Stat) -> None:
        if path in self._meta:
            self._meta[path] = stat.copy()
            self._journal_meta(1)

    def unlink(self, path: str, stat: Stat, delete_issued: bool) -> None:
        self.clock.cpu(self.params.unlink_cost)
        self._meta.pop(path, None)
        self._children.get(self._parent(path), set()).discard(self._name(path))
        # Free the extents (bitmap/extent-tree updates), and TRIM them
        # so the freed space reaches the device (mount -o discard).
        extents = self._extents.pop(path, [])
        self._journal_meta(2 + len(extents) // 16)
        for _start, off, pages in extents:
            self.device.discard(off, pages * PAGE_SIZE)
        self._last_wb.pop(path, None)

    def evict_inode(self, path: str, stat: Stat, delete_issued: bool) -> None:
        return None  # conventional FSes have no redundant-delete issue

    def rmdir(self, path: str, known_empty: bool) -> None:
        self.clock.cpu(self.params.unlink_cost)
        self._meta.pop(path, None)
        self._children.pop(path, None)
        self._children.get(self._parent(path), set()).discard(self._name(path))
        self._journal_meta(2)

    def is_dir_empty(self, path: str) -> bool:
        self._read_meta_block(f"dir:{path}")
        return not self._children.get(path)

    def rename(self, src: str, dst: str, stat: Stat) -> None:
        """Rename is a metadata-only operation (inode is relinked).

        Only ``src`` moves, and for a directory the subtree reached
        through ``_children``: the cost follows the names moved, never
        the size of the namespace.
        """
        self._journal_meta(2)
        moved_meta = {}
        moved_children = {}
        moved_extents = {}
        subtree = [src]
        for p in subtree:  # grows as each directory's children are reached
            meta = self._meta.pop(p, None)
            if meta is None:
                continue
            new_p = dst + p[len(src) :]
            moved_meta[new_p] = meta
            names = self._children.pop(p, None)
            if names is not None:
                moved_children[new_p] = names
                subtree.extend(f"{p}/{name}" for name in sorted(names))
            if p in self._extents:
                moved_extents[new_p] = self._extents.pop(p)
            self._last_wb.pop(p, None)
        self._meta.update(moved_meta)
        self._children.update(moved_children)
        self._extents.update(moved_extents)
        self._children.get(self._parent(src), set()).discard(self._name(src))
        self._children.setdefault(self._parent(dst), set()).add(self._name(dst))

    def readdir(self, path: str) -> List[Tuple[str, Stat]]:
        names = sorted(self._children.get(path, set()))
        # Cold directory blocks.
        nblocks = max(1, (len(names) + self.params.dirents_per_block - 1)
                      // self.params.dirents_per_block)
        for b in range(nblocks):
            self._read_meta_block(f"dirblk:{path}:{b}")
        out = []
        prefix = path if path.endswith("/") else path + "/"
        for i, name in enumerate(names):
            child = prefix + name
            stat = self._meta.get(child)
            if stat is not None:
                out.append((name, stat.copy()))
                # Inodes of one directory share inode-table blocks: one
                # cold read covers a run of them.
                if i % 16 == 0:
                    self._read_meta_block(f"itable:{path}:{i // 16}")
                for j in range(self.params.lookup_cold_reads):
                    self._cached_meta.add(f"inode:{child}:{j}")
        return out

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def _zone_alloc(self, dirname: str, nbytes: int) -> int:
        """Allocate ``nbytes`` from the directory's zone (block-group
        style placement: files of one directory are packed together)."""
        zone = self._zones.get(dirname)
        if zone is None or zone[1] + nbytes > DIR_ZONE:
            zone = (self._cursor, 0)
            self._cursor += DIR_ZONE
        base, used = zone
        self._zones[dirname] = (base, used + nbytes)
        return base + used

    def _extent_offset(self, path: str, idx: int, allocate: bool) -> Optional[int]:
        extents = self._extents.setdefault(path, [])
        for start, off, pages in extents:
            if start <= idx < start + pages:
                return off + (idx - start) * PAGE_SIZE
        if not allocate:
            return None
        # Delayed allocation with a doubling growth schedule: the first
        # block of a small file sits densely packed in its directory's
        # zone; each further extent doubles, capping at ALLOC_CHUNK.
        allocated_pages = sum(p for _s, _o, p in extents)
        start = allocated_pages
        pages = max(1, min(allocated_pages or 1, ALLOC_CHUNK // PAGE_SIZE))
        if idx >= start + pages:
            # A sparse jump (e.g. pre-layout): allocate a chunk
            # covering the requested index.
            pages = ALLOC_CHUNK // PAGE_SIZE
            start = (idx // pages) * pages
            off = self._cursor
            self._cursor += pages * PAGE_SIZE
        elif pages * PAGE_SIZE <= ZONE_EXTENT_CAP:
            off = self._zone_alloc(self._parent(path), pages * PAGE_SIZE)
        else:
            off = self._cursor
            self._cursor += pages * PAGE_SIZE
        extents.append((start, off, pages))
        self._journal_meta(1)  # extent-tree update
        return off + (idx - start) * PAGE_SIZE

    def write_page(
        self, path: str, idx: int, frame: PageFrame, nbytes: int
    ) -> bool:
        off = self._extent_offset(path, idx, allocate=True)
        require(off is not None, "allocate=True extent lookup returned no offset")
        # Sequential write-back is a property of device placement, not
        # of files: a stream of small files packed in one directory
        # zone writes back as one sequential run.
        sequential = off == self._last_wb_end
        self._last_wb_end = off + PAGE_SIZE
        self._last_wb[path] = idx
        if self.params.data_checksum:
            self.clock.cpu(self.costs.checksum(PAGE_SIZE))
        if not sequential:
            # Random write-back is effectively synchronous (one flusher
            # thread, journal ordering): wait for the I/O, then pay the
            # design-class bookkeeping (journal/extent CoW/NAT updates).
            completion = self.device.submit_write(off, frame.data[:PAGE_SIZE])
            self.device.wait(completion)
            self.clock.cpu(self.params.random_page_penalty)
        else:
            mib_fraction = PAGE_SIZE / MIB
            self.clock.cpu(
                self.params.seq_write_overhead_per_mib * mib_fraction
            )
            self.device.submit_write(off, frame.data[:PAGE_SIZE])
        return False  # conventional FSes copy; no page sharing

    def read_pages(
        self, path: str, idx: int, count: int, seq_hint: bool
    ) -> List[PageFrame]:
        # Cold open: map the file (extent tree / block pointers), and
        # pay the design-class data-placement discontiguity: a fraction
        # of files in any cold scan are not contiguous with the scan
        # order and cost a random seek to reach.
        if path not in self._last_wb and f"map:{path}" not in self._cached_meta:
            for i in range(self.params.open_cold_reads):
                self._read_meta_block(f"map:{path}:{i}")
            frac = int(self.params.scan_discontiguity * 1000)
            if zlib.crc32(("place:" + path).encode()) % 1000 < frac:
                self.clock.cpu(self.device.profile.rand_read_lat)
            self._cached_meta.add(f"map:{path}")
        out: List[PageFrame] = []
        pending: List[Tuple[int, int]] = []  # (dev_offset, pages) runs
        # Coalesce contiguous pages into extent-sized reads.
        i = 0
        while i < count:
            off = self._extent_offset(path, idx + i, allocate=False)
            if off is None:
                pending.append((-1, 1))
                i += 1
                continue
            # Extend a run as far as contiguous.
            run_pages = 1
            while (
                i + run_pages < count
                and self._extent_offset(path, idx + i + run_pages, allocate=False)
                == off + run_pages * PAGE_SIZE
            ):
                run_pages += 1
            pending.append((off, run_pages))
            i += run_pages
        for off, pages in pending:
            if off < 0:
                out.append(PageFrame(b"\x00" * PAGE_SIZE))
                continue
            data = self._read_run(path, idx, off, pages, seq_hint)
            if self.params.data_checksum:
                self.clock.cpu(self.costs.checksum(pages * PAGE_SIZE))
            self.clock.cpu(
                self.params.seq_read_overhead_per_mib * pages * PAGE_SIZE / MIB
            )
            # Copy into page-cache pages.
            self.clock.cpu(self.costs.page_cache_op * pages)
            for p in range(pages):
                out.append(
                    PageFrame(data[p * PAGE_SIZE : (p + 1) * PAGE_SIZE])
                )
        return out

    def _read_run(
        self, path: str, idx: int, off: int, pages: int, seq_hint: bool
    ) -> bytes:
        """Read a contiguous page run, with VFS-style async read-ahead.

        On a sequential stream the next window is prefetched while the
        caller consumes the current one, so large reads approach raw
        device bandwidth (the "simple, effective strategy" every
        conventional file system inherits from the VFS).
        """
        ra = self._readahead.pop(path, None)
        if ra is not None and ra[0] == idx and ra[2] == pages:
            data = b"".join(self.device.wait(ra[1]) or ())
        else:
            data = self.device.read(off, pages * PAGE_SIZE)
        nxt = idx + pages
        # The prefetch stops at EOF like the window it follows: past the
        # file's size ``nxt`` may still be mapped (the doubling
        # pre-allocation), but there is nothing there to read.
        if seq_hint and nxt * PAGE_SIZE < self._meta[path].size:
            nxt_off = self._extent_offset(path, nxt, allocate=False)
            if nxt_off is not None:
                completion = self.device.submit_read(nxt_off, pages * PAGE_SIZE)
                self._readahead[path] = (nxt, completion, pages)
        return data

    # ------------------------------------------------------------------
    # Durability & caches
    # ------------------------------------------------------------------
    def fsync(self, path: str) -> None:
        if self.params.fsync_commits:
            self.journal.log_block()
            self.journal.commit(durable=True)
        else:
            self.device.flush()

    def sync(self) -> None:
        self.journal.log_block()
        self.journal.commit(durable=True)

    def throttle(self) -> None:
        """Dirty throttling: the writer sleeps until queued write-back
        I/O completes (balance_dirty_pages), and the periodic journal
        transaction for the cycle commits with a barrier."""
        self.journal.log_block()
        self.journal.commit(durable=True)
        self.clock.wait_until(self.device.busy_until)
        self.clock.wait_for(self.params.writeback_cycle_penalty)

    def drop_caches(self) -> None:
        self._cached_meta.clear()
        self._last_wb.clear()
        self._readahead.clear()
