"""Unit tests for the write-ahead log."""

import struct
import zlib
from unittest import mock

import pytest

from repro.core import wal as wal_module
from repro.core.env import DATA, META
from repro.core.wal import (
    _HEADER,
    _U32,
    OP_BATCH,
    OP_DELETE,
    OP_INSERT,
    OP_MOVE,
    OP_PATCH,
    OP_RANGE_DELETE,
    SCAN_CHUNK,
    LogEntry,
    LogRecordTooLarge,
    WriteAheadLog,
    decode_batch,
    decode_payload,
    encode_batch,
    encode_payload,
)
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.model.costs import CostModel
from repro.model.profiles import NULL_DEVICE
from repro.storage.sfl import SimpleFileLayer
from tests.conftest import LAYOUT, make_env, reopen

MIB = 1 << 20


def make_wal(log_size=4 * MIB):
    clock = SimClock()
    device = BlockDevice(clock, NULL_DEVICE)
    costs = CostModel()
    storage = SimpleFileLayer(device, costs, log_size=log_size, meta_size=16 * MIB)
    return WriteAheadLog(storage, costs), storage, device


def whole_image_scan(raw, start_offset, min_lsn):
    """The oracle: the scan over the whole region image, doubled so an
    entry straddling the wrap point is contiguous (recovery's scan
    before it read only the tail it needs)."""
    entries = []
    size = len(raw)
    if size == 0:
        return entries, start_offset
    doubled = raw + raw
    pos = start_offset
    limit = start_offset + size
    expect = None
    while pos + _HEADER.size <= limit:
        lsn, op, plen = _HEADER.unpack_from(doubled, pos)
        if lsn <= 0 or op < OP_INSERT or op > OP_BATCH or plen > size:
            break
        end = pos + _HEADER.size + plen + 4
        if end > limit:
            break
        payload = doubled[pos + _HEADER.size : pos + _HEADER.size + plen]
        (crc,) = _U32.unpack_from(doubled, pos + _HEADER.size + plen)
        if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
            break
        if expect is not None and lsn != expect:
            break
        expect = lsn + 1
        if lsn >= min_lsn:
            entries.append(decode_payload(lsn, op, payload))
        pos = end
    return entries, pos % size


def fields(entries):
    return [(e.lsn, e.op, e.tree_id, e.key, e.value, e.aux, e.aux2) for e in entries]


def scan(raw, start_offset, min_lsn):
    """``WriteAheadLog.scan`` over ``raw`` read in chunks of several
    sizes, each answer checked against the whole-image oracle; returns
    the last."""
    want = whole_image_scan(raw, start_offset, min_lsn)
    for chunk in (1, 7, 4096, SCAN_CHUNK):
        asked = []

        def read(off, ln):
            assert 0 <= off and ln > 0 and off + ln <= len(raw)
            asked.append((off, ln))
            return raw[off : off + ln]

        with mock.patch.object(wal_module, "SCAN_CHUNK", chunk):
            entries, end = WriteAheadLog.scan(read, len(raw), start_offset, min_lsn)
        assert (fields(entries), end) == (fields(want[0]), want[1]), chunk
        assert all(ln <= chunk for _off, ln in asked)
    return entries, end


class TestEncoding:
    def test_payload_roundtrip(self):
        payload = encode_payload(OP_PATCH, 1, b"key", b"value", 42, b"aux")
        entry = decode_payload(7, OP_PATCH, payload)
        assert entry.lsn == 7
        assert entry.tree_id == 1
        assert entry.key == b"key"
        assert entry.value == b"value"
        assert entry.aux == 42
        assert entry.aux2 == b"aux"


class TestAppendFlushScan:
    def test_lsns_are_sequential(self):
        wal, _, _ = make_wal()
        lsns = [wal.append(OP_INSERT, 0, b"k%d" % i, b"v") for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]

    def test_flush_then_scan(self):
        wal, storage, _ = make_wal()
        for i in range(10):
            wal.append(OP_INSERT, 0, b"k%d" % i, b"v%d" % i)
        wal.flush(durable=True)
        raw = storage.read("log", 0, storage.file_size("log"))
        entries, end = scan(raw, 0, 1)
        assert [e.lsn for e in entries] == list(range(1, 11))
        assert entries[3].key == b"k3"
        assert end == wal.head

    def test_scan_min_lsn_filter(self):
        wal, storage, _ = make_wal()
        for i in range(10):
            wal.append(OP_DELETE, 0, b"k%d" % i)
        wal.flush()
        raw = storage.read("log", 0, storage.file_size("log"))
        entries, _ = scan(raw, 0, 6)
        assert [e.lsn for e in entries] == [6, 7, 8, 9, 10]

    def test_scan_stops_at_corruption(self):
        wal, storage, device = make_wal()
        for i in range(6):
            wal.append(OP_INSERT, 0, b"k%d" % i, b"v")
        wal.flush()
        raw = bytearray(storage.read("log", 0, storage.file_size("log")))
        # Flip a byte halfway into the used log.
        raw[wal.head // 2] ^= 0xFF
        survivors, _ = scan(bytes(raw), 0, 1)
        assert 0 < len(survivors) < 6

    def test_wraparound_scan(self):
        wal, storage, _ = make_wal(log_size=64 * 1024)
        checkpoints = []
        wal.on_full = lambda: checkpoints.append(True)
        big = b"x" * 1000
        total = 0
        # Write enough entries to wrap; keep moving the tail forward
        # like checkpoints would.
        for i in range(200):
            wal.append(OP_INSERT, 0, b"key%03d" % i, big)
            wal.flush(durable=False)
            wal.truncate(wal.next_lsn - 1, wal.head)
        raw = storage.read("log", 0, storage.file_size("log"))
        # Scanning from the recorded head hint with a high min_lsn
        # returns nothing but does not crash/mis-parse.
        entries, _ = scan(raw, wal.head, wal.next_lsn)
        assert entries == []

    def test_entries_straddling_wrap_are_recovered(self):
        size = 64 * 1024
        wal, storage, _ = make_wal(log_size=size)
        # Position the head near the end, then write entries across it.
        wal.head = size - 700
        wal.tail = wal.head
        for i in range(3):
            wal.append(OP_INSERT, 0, b"wrapkey%d" % i, b"w" * 400)
        wal.flush(durable=False)
        raw = storage.read("log", 0, size)
        entries, end = scan(raw, size - 700, 1)
        assert [e.key for e in entries] == [b"wrapkey0", b"wrapkey1", b"wrapkey2"]
        assert end == wal.head

    @pytest.mark.parametrize("head", [0, 64 * 1024 - 1000], ids=["flat", "straddling"])
    def test_a_torn_tail_ends_the_scan_after_the_last_whole_entry(self, head):
        """The last flush reached the device only in part: the scan
        keeps every whole entry and ends where the torn one begins —
        also when the torn entry straddles the wrap point."""
        size = 64 * 1024
        wal, storage, _ = make_wal(log_size=size)
        wal.head = wal.tail = head
        for i in range(4):
            wal.append(OP_INSERT, 0, b"k%d" % i, b"v" * 150)
        wal.flush(durable=False)
        whole = wal.head
        wal.append(OP_INSERT, 0, b"torn", b"t" * 600)
        wal.flush(durable=False)
        raw = bytearray(storage.read("log", 0, size))
        torn_from = (whole + 300) % size  # the torn entry's second half
        for at in range(torn_from, torn_from + 316):
            raw[at % size] = 0
        if head:  # the torn entry starts before the wrap point, tears past it
            assert whole < size < whole + 300
        entries, end = scan(bytes(raw), head, 1)
        assert [e.key for e in entries] == [b"k0", b"k1", b"k2", b"k3"]
        assert end == whole


class TestBatch:
    OPS = [
        (OP_INSERT, 3, b"/dst/f", b"v" * 5000, 0),
        (OP_DELETE, 0, b"/src/f", b"", 0),
        (OP_MOVE, 1, b"/src/f\x00", b"/dst/f\x00", 3),
        (OP_RANGE_DELETE, 0, b"/src/d/", b"/src/d0", 0),
    ]

    def test_batch_roundtrip(self):
        entry = LogEntry(9, OP_BATCH, value=encode_batch(self.OPS))
        assert [
            (e.lsn, e.op, e.tree_id, e.key, e.value, e.aux) for e in decode_batch(entry)
        ] == [(9, *op) for op in self.OPS]

    def test_a_torn_batch_is_dropped_whole(self):
        """A batch is one entry — one LSN, one CRC: the scan returns it
        whole, and a tear anywhere inside it drops all of it."""
        size = 64 * 1024
        wal, storage, _ = make_wal(log_size=size)
        wal.append(OP_INSERT, 0, b"before", b"v")
        wal.flush(durable=False)
        whole = wal.head
        wal.append(OP_BATCH, 0, b"", encode_batch(self.OPS))
        wal.flush(durable=False)
        raw = storage.read("log", 0, size)
        entries, end = scan(raw, 0, 1)
        assert [e.op for e in entries] == [OP_INSERT, OP_BATCH]
        assert [e.key for e in decode_batch(entries[1])] == [op[2] for op in self.OPS]
        assert end == wal.head
        for cut in (whole + 1, (whole + wal.head) // 2, wal.head - 1):
            torn = raw[:cut] + bytes(size - cut)
            entries, end = scan(torn, 0, 1)
            assert [e.key for e in entries] == [b"before"], cut
            assert end == whole


    def test_a_move_replays_to_the_state_it_left_live(self):
        """``OP_MOVE`` and ``OP_RANGE_DELETE`` in a batch: the live
        apply and recovery's replay of the record (no checkpoint since)
        leave the same keys — the record names prefixes, and replay
        re-keys what the tree holds at that point of the log."""
        env, device = make_env()
        for i in range(3):
            env.insert(DATA, b"/src\x00" + struct.pack(">I", i), b"page%d" % i)
            env.insert(META, b"/d/c%d" % i, b"stat%d" % i)
        env.insert(DATA, b"/src2\x00\x00\x00\x00\x00", b"not under the prefix")
        env.checkpoint()
        env.apply_batch([
            (OP_INSERT, META, b"/e", b"stat", 0),
            (OP_MOVE, DATA, b"/src\x00", b"/dst\x00", DATA),
            (OP_RANGE_DELETE, META, b"/d/", b"/d0", 0),
        ])
        everything = (b"", b"\xff")
        live = [env.range_query(t, *everything) for t in (META, DATA)]
        assert [k for k, _v in live[1]] == [
            *(b"/dst\x00" + struct.pack(">I", i) for i in range(3)),
            b"/src2\x00\x00\x00\x00\x00",
        ]
        assert [k for k, _v in live[0]] == [b"/e"]
        env.sync()
        recovered = reopen(device)
        assert recovered.recovered_entries == 1
        assert [recovered.range_query(t, *everything) for t in (META, DATA)] == live

    def test_a_record_larger_than_the_region_is_refused(self):
        wal, _, _ = make_wal(log_size=64 * 1024)
        with pytest.raises(LogRecordTooLarge, match="does not fit"):
            wal.append(OP_BATCH, 0, b"", b"v" * 64 * 1024)
        assert (wal.next_lsn, wal.entries_appended, wal._buffer_bytes) == (1, 0, 0)

    def test_a_flush_never_writes_past_the_region(self):
        """Records that fit the region one by one but not together: each
        append flushes what is buffered first, so no flush is larger
        than the region (one used to write past its end)."""
        size = 64 * 1024
        wal, storage, _ = make_wal(log_size=size)
        wal.on_full = lambda: wal.truncate(wal.next_lsn - 1, wal.head)
        for i in range(4):
            wal.append(OP_INSERT, 0, b"k%d" % i, b"v" * 40_000)
        wal.flush()
        entries, _end = scan(storage.read("log", 0, size), wal.tail, 1)
        assert [e.key for e in entries] == [b"k3"]


class TestRecoveryReadsTheTail:
    def test_recovery_reads_one_chunk_of_the_log_not_the_region(self, monkeypatch):
        """A reboot reads the log from the checkpoint's head hint up to
        the first break in ``SCAN_CHUNK`` pieces — here one piece of an
        8 MiB region — and replays the same entries."""
        env, device = make_env()
        for i in range(50):
            env.insert(META, b"key%03d" % i, b"v" * 100)
        env.sync()
        asked = []
        real = SimpleFileLayer.read

        def read(self, name, off, ln):
            if name == "log":
                asked.append(ln)
            return real(self, name, off, ln)

        monkeypatch.setattr(SimpleFileLayer, "read", read)
        recovered = reopen(device)
        assert recovered.recovered_entries == 50
        assert asked == [SCAN_CHUNK] and SCAN_CHUNK < LAYOUT.log_size
        assert recovered.get(META, b"key049") == b"v" * 100


class TestTail:
    def test_a_checkpoint_moves_the_tail_to_its_head(self):
        """A deferred insert does not hold the log back: the checkpoint
        puts it in the tree, then releases the whole log before it."""
        env, device = make_env()
        env.defer(META, b"deferred", b"v" * 100)
        for i in range(20):
            env.insert(META, b"key%02d" % i, b"w" * 100)
        assert env.wal.head == 0 and env.deferred_count == 1
        env.checkpoint()
        assert env.wal.head > 0
        assert env.wal.tail == env.wal.head
        assert env.wal.checkpoint_lsn == env.wal.next_lsn - 1 == 21
        assert env.deferred_count == 0
        assert env.get(META, b"deferred") == b"v" * 100
        assert reopen(device).get(META, b"deferred") == b"v" * 100

    def test_on_full_invoked(self):
        calls = []
        wal, _, _ = make_wal(log_size=32 * 1024)
        wal.on_full = lambda: calls.append(1) or wal.truncate(
            wal.next_lsn - 1, wal.head
        )
        for i in range(40):
            wal.append(OP_RANGE_DELETE, 0, b"a%03d" % i, b"b" * 900)
            wal.flush(durable=False)
        assert calls
