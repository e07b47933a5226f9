"""Stacked-ext4 southbound substrate (the BetrFS v0.4 arrangement).

Models the costs the paper attributes to stacking a key-value store on
a full file system (§2.3, §3):

* **Double buffering / extra copies** — every write is copied into
  ext4's page cache (and reads are copied out of it) before reaching
  the device.
* **Double journaling** — every ``fsync`` from the key-value store
  commits an ext4 journal transaction on top of the tree's own log.
* **KiB-scale read-ahead** — reads are performed in VFS read-ahead
  window chunks (128 KiB), synchronously, so a 4 MiB node read cannot
  overlap with tree CPU work and pays per-chunk request overhead.
* **Dirty write-back stutter** — dirty bytes accumulate in the ext4
  page cache; crossing the high-water mark forces synchronous
  write-back before more writes are accepted.

Files are ``fallocate()``-ed contiguous extents (the real BetrFS node
files are created exactly this way), so fragmentation is *not* part of
this model — the overheads above are.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.device.block import BlockDevice, Completion, Payload, Segments
from repro.model.costs import CostModel
from repro.storage.filelayer import Southbound
from repro.storage.journal import Journal

KIB = 1024
MIB = 1024 * KIB

#: VFS read-ahead window applied to the stacked file system.
READAHEAD_WINDOW = 128 * KIB

#: Dirty-page high-water mark of the stacked file system's page cache.
#: Deliberately small (workloads are scaled down ~2500x): crossing it
#: blocks the writer until write-back completes, producing the paper's
#: double-buffering "stutter".
DIRTY_LIMIT = 4 * MIB

#: Journal region size reserved at the front of the device.
JOURNAL_SIZE = 128 * MIB

#: Extra per-byte cost of moving data through the stacked file system:
#: the copy into/out of ext4's page cache plus radix-tree dirtying and
#: write-back state management (double buffering, §2.3).
STACKED_BYTE_COST = 0.9e-9


class _Ext4Prefetch:
    """Prefetch token: the first read-ahead window is in flight; the
    remainder is fetched synchronously at finish time."""

    __slots__ = ("completion", "name", "offset", "length")

    def __init__(self, completion: Completion, name: str, offset: int, length: int) -> None:
        self.completion = completion
        self.name = name
        self.offset = offset
        self.length = length


class Ext4Southbound(Southbound):
    """ext4-as-block-allocator southbound (BetrFS v0.4)."""

    def __init__(self, device: BlockDevice, costs: CostModel) -> None:
        super().__init__(device, costs)
        self.journal = Journal(device, costs, 0, JOURNAL_SIZE)
        self._alloc_cursor = JOURNAL_SIZE
        self._files: Dict[str, Tuple[int, int]] = {}  # name -> (base, size)
        self._dirty_bytes = 0
        self._dirty_completions: List[Completion] = []
        #: Metadata blocks pending in the current journal transaction.
        self._txn_open = False

    # ------------------------------------------------------------------
    def create(self, name: str, size: int) -> None:
        base = self._alloc_cursor
        self._alloc_cursor += size
        self._files[name] = (base, size)
        # fallocate: extent-tree metadata update, journaled.
        self.journal.log_block()
        self._txn_open = True

    def file_size(self, name: str) -> int:
        return self._files[name][1]

    def _map(self, name: str, offset: int, length: int) -> int:
        base, size = self._files[name]
        if offset + length > size:
            raise ValueError(f"I/O beyond EOF of {name}")
        return base + offset

    # ------------------------------------------------------------------
    def write(self, name: str, offset: int, data: Payload, byref: bool = False) -> None:
        # Stock kernels reject direct I/O on kernel addresses; stacked
        # writes always copy into the lower file system's page cache
        # (a node's segments are joined: the copy charged below).
        if isinstance(data, tuple):
            data = b"".join(data)
        self.clock.cpu(self.costs.memcpy(len(data)))
        self.clock.cpu(len(data) * STACKED_BYTE_COST)
        self.clock.cpu(self.costs.page_cache_op * max(1, len(data) // 4096))
        dev_off = self._map(name, offset, len(data))
        self._account_write(name, len(data))
        completion = self.device.submit_write(dev_off, data)
        self._track(name, completion)
        self._dirty_completions.append(completion)
        self._dirty_bytes += len(data)
        if self._dirty_bytes >= DIRTY_LIMIT:
            # High-water mark: the writer blocks until write-back
            # catches up (the paper's "stutter").
            self._writeback_all(stutter=True)

    def _writeback_all(self, stutter: bool = False) -> None:
        for completion in self._dirty_completions:
            self.device.wait(completion)
        if stutter:
            # Dirty-throttling backoff: with double buffering the
            # upper and lower dirty counts never drain together, so
            # the writer sleeps roughly one more drain period
            # (balance_dirty_pages pause) per high-water event.
            self.clock.wait_for(DIRTY_LIMIT / self.device.profile.sustained_write_bw)
        self._dirty_completions.clear()
        self._dirty_bytes = 0

    def read(self, name: str, offset: int, length: int) -> bytes:
        return self._read(name, offset, length)

    def read_segments(self, name: str, offset: int, length: int) -> Segments:
        # Copied out of the stacked page cache: one buffer.
        return (self._read(name, offset, length),)

    def _read(self, name: str, offset: int, length: int) -> bytes:
        dev_off = self._map(name, offset, length)
        self._account_read(name, length)
        # VFS read-ahead window: synchronous chunked reads.
        chunks: List[bytes] = []
        pos = 0
        while pos < length:
            chunk = min(READAHEAD_WINDOW, length - pos)
            chunks.append(self.device.read(dev_off + pos, chunk))
            pos += chunk
        # Copy out of the stacked page cache to the caller's buffer.
        self.clock.cpu(self.costs.memcpy(length))
        self.clock.cpu(length * STACKED_BYTE_COST)
        self.clock.cpu(self.costs.page_cache_op * max(1, length // 4096))
        return b"".join(chunks)

    def prefetch(self, name: str, offset: int, length: int):
        # The stacked arrangement has no useful large-granularity
        # prefetch (heuristics operate "on the order of KiB"); model it
        # as an async read of just the first read-ahead window — the
        # remainder is read synchronously by finish_read.
        dev_off = self._map(name, offset, length)
        first = min(READAHEAD_WINDOW, length)
        completion = self.device.submit_read(dev_off, first)
        return _Ext4Prefetch(completion, name, offset, length)

    def finish_read(self, token) -> Segments:
        head = b"".join(self.device.wait(token.completion) or ())
        first = min(READAHEAD_WINDOW, token.length)
        self.clock.cpu(self.costs.memcpy(first))
        rest = b""
        if token.length > first:
            rest = self.read(token.name, token.offset + first, token.length - first)
        return (head[: token.length] + rest,)

    def discard(self, name: str, offset: int, length: int) -> None:
        """Punch-hole through the stacked file system (ext4 mounted
        with ``-o discard`` forwards the freed extents to the device)."""
        if length <= 0:
            return
        dev_off = self._map(name, offset, length)
        self.device.discard(dev_off, length)

    def sync(self, name: str) -> None:
        """fsync through the stacked file system: *double journaling*.

        The tree already logged this operation in its own WAL; the
        stacked ext4 now runs its own journal commit with a barrier.
        """
        self._wait_pending(name)
        self._writeback_all()
        # Ordered mode: data reaches the platter before the metadata
        # transaction commits — two barriers per fsync on top of the
        # key-value store's own log write (double journaling).
        self.device.flush()
        self.journal.log_block()  # inode timestamps/size update
        self.journal.commit(durable=True)
