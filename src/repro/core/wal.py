"""Redo log (WAL) for the B-epsilon-tree environment.

The log lives in a statically allocated circular region (the ``log``
southbound file).  Each entry carries a log sequence number (LSN) and a
CRC32 (§3.1: "each log entry includes a sequence number and a
checksum").  Entries buffer in memory and are written out in large
sequential I/Os; ``flush`` makes everything appended so far durable.

Value elision ("ordered mode" for file blocks)
----------------------------------------------

Full 4 KiB data-page values are **not** copied into the log; their
entries record only the key and a content checksum, and the
environment guarantees the referenced pages reach the on-disk tree
before (or at) the durability point — `KVEnv.sync` checkpoints when
elided values are still volatile.  This matches the observed behaviour
of BetrFS v0.6 (an 80 GiB sequential write sustains well above half
the device bandwidth, so data cannot be flowing through the log
twice); small values and all metadata are fully value-logged.

Batch records
-------------

An ``OP_BATCH`` entry carries several inserts and deletes, on any of
the environment's trees, under one LSN and one CRC: recovery replays
all of them or none.  A cross-volume rename is one such record
(``repro.shard``).

Conditional logging (§3.3) support: the log is divided into fixed
sections; a dirty inode that exists *only* in the log takes a
reference on its section, delaying that section's reuse until the
inode is written into the tree.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.costs import CostModel
from repro.storage.filelayer import Southbound

# Entry op tags.
OP_INSERT = 1
OP_DELETE = 2
OP_PATCH = 3
OP_RANGE_DELETE = 4
OP_INSERT_REF = 5  # value elided; payload holds key + crc of the page
OP_CHECKPOINT = 6
OP_BATCH = 7  # value holds sub-entries (decode_batch); key and tree unused

_HEADER = struct.Struct("<qBI")  # lsn, op, payload_len
_KEY_HEAD = struct.Struct("<BH")  # tree_id, key_len
_AUX_HEAD = struct.Struct("<IH")  # aux, aux2_len
_U32 = struct.Struct("<I")  # value_len; the entry's trailing crc
_SUB_HEAD = struct.Struct("<BI")  # a batch sub-entry's op, payload_len

#: Tree ids are one byte (``_KEY_HEAD``): one log names at most this
#: many trees.
MAX_TREES = 256

#: What recovery reads of the log region at a time (``scan``).
SCAN_CHUNK = 1 << 20


class LogEntry:
    """A decoded log entry."""

    __slots__ = ("lsn", "op", "tree_id", "key", "value", "aux", "aux2")

    def __init__(
        self,
        lsn: int,
        op: int,
        tree_id: int = 0,
        key: bytes = b"",
        value: bytes = b"",
        aux: int = 0,
        aux2: bytes = b"",
    ) -> None:
        self.lsn = lsn
        self.op = op
        self.tree_id = tree_id
        self.key = key
        self.value = value
        self.aux = aux
        self.aux2 = aux2


def encode_payload(
    op: int, tree_id: int, key: bytes, value: bytes, aux: int, aux2: bytes
) -> bytes:
    return b"".join(
        (
            _KEY_HEAD.pack(tree_id, len(key)),
            key,
            _U32.pack(len(value)),
            value,
            _AUX_HEAD.pack(aux, len(aux2)),
            aux2,
        )
    )


def decode_payload(lsn: int, op: int, payload: bytes) -> LogEntry:
    tree_id, klen = _KEY_HEAD.unpack_from(payload, 0)
    pos = 3
    key = payload[pos : pos + klen]
    pos += klen
    (vlen,) = _U32.unpack_from(payload, pos)
    pos += 4
    value = payload[pos : pos + vlen]
    pos += vlen
    aux, a2len = _AUX_HEAD.unpack_from(payload, pos)
    pos += 6
    aux2 = payload[pos : pos + a2len]
    return LogEntry(lsn, op, tree_id, key, value, aux, aux2)


def encode_batch(ops: Sequence[Tuple[int, int, bytes, bytes]]) -> bytes:
    """The value of an ``OP_BATCH`` entry: ``(op, tree_id, key, value)``
    sub-entries, each an op tag and a length-prefixed payload."""
    parts = []
    for op, tree_id, key, value in ops:
        payload = encode_payload(op, tree_id, key, value, 0, b"")
        parts.append(_SUB_HEAD.pack(op, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_batch(entry: LogEntry) -> List[LogEntry]:
    """The sub-entries of an ``OP_BATCH`` entry, each with its LSN."""
    out: List[LogEntry] = []
    raw, pos = entry.value, 0
    while pos < len(raw):
        op, plen = _SUB_HEAD.unpack_from(raw, pos)
        pos += _SUB_HEAD.size
        out.append(decode_payload(entry.lsn, op, raw[pos : pos + plen]))
        pos += plen
    return out


class WriteAheadLog:
    """Circular redo log over a southbound ``log`` file."""

    #: Traced when the observability scope traces; ``bytes`` is the
    #: buffer the flush writes.
    SPANS = {
        "flush": (
            "wal.flush", "log",
            lambda wal, durable=True: {"bytes": wal._buffer_bytes, "durable": durable},
        ),
    }

    def __init__(
        self,
        storage: Southbound,
        costs: CostModel,
        section_size: int,
        on_full: Optional[Callable[[], None]] = None,
        obs=None,
    ) -> None:
        self.storage = storage
        self.costs = costs
        self.clock = storage.clock
        self.section_size = section_size
        if obs is not None:
            obs.register_object("log.wal", self, layer="log")
            obs.instrument(self, self.SPANS)
        self.region_size = storage.file_size("log")
        #: Called when the circular buffer cannot advance (forces a
        #: checkpoint, which releases the tail).
        self.on_full = on_full
        self.next_lsn = 1
        #: Device offset where the next flush lands.
        self.head = 0
        #: Oldest offset still needed (advanced by checkpoints).
        self.tail = 0
        #: In-memory buffered (unflushed) encoded entries.
        self._buffer: List[bytes] = []
        self._buffer_bytes = 0
        #: Durable LSN (everything below is on the device).
        self.flushed_lsn = 0
        #: LSN up to which a checkpoint has made the log replayable-from.
        self.checkpoint_lsn = 0
        #: Conditional-logging pins: section index -> refcount.
        self._section_pins: Dict[int, int] = {}
        self.entries_appended = 0
        self.bytes_flushed = 0
        self.flushes = 0
        self.durable_flushes = 0

    # ------------------------------------------------------------------
    def append(
        self,
        op: int,
        tree_id: int,
        key: bytes,
        value: bytes = b"",
        aux: int = 0,
        aux2: bytes = b"",
    ) -> int:
        """Append one entry; returns its LSN (not yet durable)."""
        lsn = self.next_lsn
        self.next_lsn += 1
        payload = encode_payload(op, tree_id, key, value, aux, aux2)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        blob = b"".join(
            (_HEADER.pack(lsn, op, len(payload)), payload, _U32.pack(crc))
        )
        self._buffer.append(blob)
        self._buffer_bytes += len(blob)
        self.entries_appended += 1
        self.clock.cpu(self.costs.serialize(len(blob)))
        self.clock.cpu(self.costs.checksum(len(payload)))
        return lsn

    def section_of(self, offset: int) -> int:
        return offset // self.section_size

    def current_section(self) -> int:
        """Section the next flushed byte will land in (for pinning)."""
        return self.section_of((self.head + self._buffer_bytes) % self.region_size)

    def pin_section(self, section: int) -> None:
        self._section_pins[section] = self._section_pins.get(section, 0) + 1

    def unpin_section(self, section: int) -> None:
        count = self._section_pins.get(section, 0) - 1
        if count <= 0:
            self._section_pins.pop(section, None)
        else:
            self._section_pins[section] = count

    def _space_ahead(self) -> int:
        """Free bytes between head and tail in the circular region."""
        if self.head >= self.tail:
            return self.region_size - (self.head - self.tail)
        return self.tail - self.head

    def flush(self, durable: bool = True) -> None:
        """Write buffered entries to the device (one sequential I/O)."""
        self.flushes += 1
        if durable:
            self.durable_flushes += 1
        if self._buffer:
            blob = b"".join(self._buffer)
            self._buffer.clear()
            self._buffer_bytes = 0
            if len(blob) >= self._space_ahead() and self.on_full is not None:
                self.on_full()
            if self.head + len(blob) > self.region_size:
                # Wrap: split the write.
                first = self.region_size - self.head
                self.storage.write("log", self.head, blob[:first], byref=True)
                self.storage.write("log", 0, blob[first:], byref=True)
                self.head = len(blob) - first
            else:
                self.storage.write("log", self.head, blob, byref=True)
                self.head = (self.head + len(blob)) % self.region_size
            self.bytes_flushed += len(blob)
        if durable:
            self.storage.sync("log")
        self.flushed_lsn = self.next_lsn - 1

    def truncate(self, lsn: int, new_tail_offset: int) -> None:
        """A checkpoint at ``lsn`` no longer needs the log before it.

        Pinned sections (conditional logging) hold the tail back.  The
        released region is TRIMmed: the log is circular, so telling the
        device the tail moved is what keeps an FTL from relocating dead
        log pages during garbage collection.
        """
        self.checkpoint_lsn = lsn
        if self._section_pins:
            oldest_pinned = min(self._section_pins) * self.section_size
            # Only advance the tail up to the oldest pinned section.
            if self._between(self.tail, oldest_pinned, new_tail_offset):
                new_tail_offset = oldest_pinned
        old_tail = self.tail
        self.tail = new_tail_offset
        if new_tail_offset >= old_tail:
            spans = [(old_tail, new_tail_offset - old_tail)]
        else:  # wrapped
            spans = [
                (old_tail, self.region_size - old_tail),
                (0, new_tail_offset),
            ]
        for off, ln in spans:
            if ln > 0:
                self.storage.discard("log", off, ln)

    def _between(self, tail: int, x: int, head: int) -> bool:
        """True if circular position x lies in [tail, head] — i.e. the
        tail may not advance past x without releasing it."""
        if tail <= head:
            return tail <= x <= head
        return x >= tail or x <= head

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @staticmethod
    def scan(
        read: Callable[[int, int], bytes],
        size: int,
        start_offset: int,
        min_lsn: int,
    ) -> Tuple[List[LogEntry], int]:
        """Parse entries from a circular log region of ``size`` bytes,
        ``read(offset, length)`` returning its bytes.

        Scans forward from ``start_offset`` (a checkpoint hint, §3.1),
        wrapping once, collecting entries with ``lsn >= min_lsn`` in
        LSN order; stops at the first checksum or sequence break.  The
        region is read :data:`SCAN_CHUNK` bytes at a time (never across
        its end) and only as far as the scan gets: recovery reads the
        tail it replays, not the region.  Returns ``(entries,
        end_offset)`` where ``end_offset`` is the circular position
        just past the last valid entry.
        """
        chunk = SCAN_CHUNK
        entries: List[LogEntry] = []
        if size == 0:
            return entries, start_offset
        # Positions run from ``start_offset`` to ``limit`` and wrap
        # (``p % size``); ``window`` holds those from ``base`` on, so an
        # entry straddling the wrap point is contiguous in it.
        limit = start_offset + size
        window = bytearray()
        base = pos = start_offset

        def have(stop: int) -> bool:
            """Make the window reach ``stop``; False past ``limit``."""
            nonlocal base
            if stop > limit:
                return False
            del window[: pos - base]
            base = pos
            while base + len(window) < stop:
                at = base + len(window)
                phys = at % size
                window.extend(read(phys, min(chunk, size - phys, limit - at)))
            return True

        expect: Optional[int] = None
        while have(pos + _HEADER.size):
            lsn, op, plen = _HEADER.unpack_from(window, 0)
            if lsn <= 0 or op < OP_INSERT or op > OP_BATCH or plen > size:
                break
            end = pos + _HEADER.size + plen + 4
            if not have(end):
                break
            payload = bytes(window[_HEADER.size : _HEADER.size + plen])
            (crc,) = _U32.unpack_from(window, _HEADER.size + plen)
            if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
                break
            if expect is not None and lsn != expect:
                break
            expect = lsn + 1
            if lsn >= min_lsn:
                entries.append(decode_payload(lsn, op, payload))
            pos = end
        return entries, pos % size
