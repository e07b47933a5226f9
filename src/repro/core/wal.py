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

An ``OP_BATCH`` entry carries inserts, deletes, range deletes and
moves, on any of the environment's trees, under one LSN and one CRC:
recovery replays all of them or none.  Every rename is one such record
(``repro.betrfs.northbound``).  A move (``OP_MOVE``, a sub-entry only)
names a source tree and key prefix and a destination tree (``aux``)
and prefix (``value``), never the bytes it moves.  A record is at most
the log region's size; ``append`` refuses a larger one before it takes
an LSN, and no flush writes past the region.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, List, Optional, Sequence, Tuple

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
OP_MOVE = 8  # batch sub-entry only: prefix key of tree_id -> prefix value of tree aux

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


class LogRecordTooLarge(ValueError):
    """A log record larger than the whole log region (never written)."""


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


def encode_batch(ops: Sequence[Tuple[int, int, bytes, bytes, int]]) -> bytes:
    """The value of an ``OP_BATCH`` entry: ``(op, tree_id, key, value,
    aux)`` sub-entries, each an op tag and a length-prefixed payload."""
    parts = []
    for op, tree_id, key, value, aux in ops:
        payload = encode_payload(op, tree_id, key, value, aux, b"")
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
        on_full: Optional[Callable[[], None]] = None,
        obs=None,
    ) -> None:
        self.storage = storage
        self.costs = costs
        self.clock = storage.clock
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
        """Append one entry; returns its LSN (not yet durable).  An
        entry larger than the region raises, logging nothing; one that
        does not fit beside the buffer flushes the buffer first."""
        payload = encode_payload(op, tree_id, key, value, aux, aux2)
        size = _HEADER.size + len(payload) + _U32.size
        if size > self.region_size:
            raise LogRecordTooLarge(f"{size} B does not fit a {self.region_size} B log")
        if self._buffer_bytes + size > self.region_size:
            self.flush(durable=False)
        lsn = self.next_lsn
        self.next_lsn += 1
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

        The released region is TRIMmed: the log is circular, so telling
        the device the tail moved is what keeps an FTL from relocating
        dead log pages during garbage collection.
        """
        self.checkpoint_lsn = lsn
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
