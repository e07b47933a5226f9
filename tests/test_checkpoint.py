"""Unit tests for the CoW block manager and superblock."""

import pytest

import struct

from repro.core.checkpoint import (
    DECODED,
    EMPTY,
    SLOT_HEAD,
    STAMP_MAGIC,
    STAMP_SIZE,
    TORN,
    UNREADABLE,
    BlockManager,
    SlotVerdict,
    Superblock,
    read_superblock,
)

MIB = 1 << 20
SLOT = Superblock.SLOT_SIZE


class Region:
    """A superblock region whose slots begin with the given bytes and
    are zero past them; ``reads`` records each ``(offset, length)``."""

    def __init__(self, slot0: bytes = b"", slot1: bytes = b"") -> None:
        self.slots = (slot0, slot1)
        self.reads = []

    def read(self, offset: int, length: int) -> bytes:
        self.reads.append((offset, length))
        idx, pos = divmod(offset, SLOT)
        chunk = self.slots[idx][pos : pos + length]
        return chunk + bytes(length - len(chunk))

    def superblock(self):
        return read_superblock(self.read)


class TestBlockManager:
    def test_allocate_is_aligned_and_disjoint(self):
        mgr = BlockManager(64 * MIB)
        offs = [mgr.allocate(5000) for _ in range(10)]
        assert all(off % 4096 == 0 for off in offs)
        assert len(set(offs)) == 10

    def test_relocate_records_exact_length(self):
        mgr = BlockManager(64 * MIB)
        mgr.relocate(7, 5000)
        off, ln = mgr.lookup(7)
        assert ln == 5000  # exact, not aligned (reads must not pad)

    def test_cow_defers_free_until_commit(self):
        mgr = BlockManager(64 * MIB)
        mgr.relocate(1, 4096)
        old_off, _ = mgr.lookup(1)
        mgr.relocate(1, 4096)  # CoW rewrite
        assert mgr.lookup(1)[0] != old_off
        assert not mgr.free_list  # old extent not yet reusable
        mgr.commit_checkpoint()
        assert (old_off, 4096) in mgr.free_list

    def test_freed_extents_are_reused(self):
        mgr = BlockManager(64 * MIB)
        mgr.relocate(1, 4096)
        old_off, _ = mgr.lookup(1)
        mgr.relocate(1, 4096)
        mgr.commit_checkpoint()
        new_off = mgr.allocate(4096)
        assert new_off == old_off

    def test_out_of_space(self):
        mgr = BlockManager(16 * 4096)
        with pytest.raises(RuntimeError):
            for i in range(100):
                mgr.allocate(4096)

    def test_serialize_roundtrip(self):
        mgr = BlockManager(64 * MIB, reserve=8192)
        for node_id in (1, 5, 9):
            mgr.relocate(node_id, 4096 * node_id)
        mgr.relocate(5, 4096)
        mgr.commit_checkpoint()
        back = BlockManager.deserialize(mgr.serialize())
        assert back.table == mgr.table
        assert back.cursor == mgr.cursor
        assert back.free_list == mgr.free_list


class TestSuperblock:
    def make(self, generation=3):
        sb = Superblock()
        sb.generation = generation
        sb.checkpoint_lsn = 42
        sb.log_head = 1000
        sb.log_tail = 500
        sb.next_node_id = 77
        sb.next_msn = 99
        sb.root_ids = [10, 11]
        sb.block_tables = [b"table-a", b"table-b"]
        sb.clean_shutdown = True
        return sb

    def test_roundtrip(self):
        sb = self.make()
        back = Superblock.deserialize(sb.serialize())
        assert back.generation == 3
        assert back.checkpoint_lsn == 42
        assert back.log_head == 1000 and back.log_tail == 500
        assert back.root_ids == [10, 11]
        assert back.block_tables == [b"table-a", b"table-b"]
        assert back.clean_shutdown

    def test_corruption_rejected(self):
        blob = bytearray(self.make().serialize())
        blob[10] ^= 0xFF
        assert Superblock.deserialize(bytes(blob)) is None

    def test_reader_picks_newest_valid(self):
        a = self.make(generation=3).frame()
        b = self.make(generation=7).frame()
        picked, slots = Region(a, b).superblock()
        assert picked.generation == 7
        assert slots == [SlotVerdict(DECODED, 3), SlotVerdict(DECODED, 7)]
        # Corrupt the newer slot: falls back to the older.
        b = bytearray(b)
        b[20] ^= 0xFF
        picked, _slots = Region(a, bytes(b)).superblock()
        assert picked.generation == 3

    def test_reader_finds_no_superblock_in_bad_slots(self):
        picked, slots = Region(b"\x00" * 64, b"junk").superblock()
        assert picked is None
        assert slots == [SlotVerdict(EMPTY), SlotVerdict(TORN)]

    def test_frame_reads_back_past_slot_padding(self):
        sb = self.make()
        framed = sb.frame() + b"\x00" * 128  # slot padding
        (length,) = struct.unpack_from("<I", framed)
        assert framed[4 : 4 + length] == sb.serialize()
        picked, _slots = Region(framed).superblock()
        assert picked.serialize() == sb.serialize()

    def test_reader_reads_the_head_then_the_rest_of_the_frame(self):
        sb = self.make(generation=2)
        sb.block_tables = [b"t" * 3 * SLOT_HEAD, b"u"]
        big = sb.frame()
        small = self.make(generation=1).frame()
        region = Region(big, small)
        picked, _slots = region.superblock()
        assert picked.generation == 2
        assert region.reads == [
            (0, SLOT_HEAD),
            (SLOT_HEAD, len(big) - SLOT_HEAD),
            (SLOT, SLOT_HEAD),
        ]


class TestCompletionStamp:
    """The tail stamp distinguishes torn writes from media corruption.

    Every case is a slot handed to :func:`read_superblock`, beside an
    older intact slot where the case needs a survivor."""

    def _framed(self, generation=5):
        sb = Superblock()
        sb.generation = generation
        sb.root_ids = [1]
        sb.block_tables = [BlockManager(MIB).serialize()]
        return sb.frame()

    def test_stamp_reads_back_generation_and_length(self):
        framed = self._framed(generation=9)
        (length,) = struct.unpack_from("<I", framed)
        assert len(framed) == 4 + length + STAMP_SIZE
        magic, generation, stamped = struct.unpack_from("<4sqI", framed, 4 + length)
        assert (magic, generation, stamped) == (STAMP_MAGIC, 9, length)
        raw = bytearray(framed)
        raw[20] ^= 0xFF  # the payload no longer decodes; the stamp speaks
        picked, slots = Region(bytes(raw), self._framed(generation=8)).superblock()
        assert picked.generation == 8
        assert slots[0] == SlotVerdict(UNREADABLE, 9)

    def test_reader_ignores_the_stamp(self):
        sb = Superblock()
        sb.generation = 4
        picked, slots = Region(sb.frame() + b"\x00" * 64).superblock()
        assert picked.generation == 4
        assert slots == [SlotVerdict(DECODED, 4), SlotVerdict(EMPTY)]

    def test_payload_corruption_leaves_stamp_intact(self):
        raw = bytearray(self._framed(generation=7) + b"\x00" * 256)
        raw[20] ^= 0xFF  # flip inside the payload
        region = Region(bytes(raw), self._framed(generation=6))
        picked, slots = region.superblock()
        assert picked.generation == 6
        assert slots[0] == SlotVerdict(UNREADABLE, 7)
        # The stamp sat where the length word said: no whole-slot read.
        assert sum(length for _off, length in region.reads) == 2 * SLOT_HEAD

    def test_damaged_length_prefix_falls_back_to_magic_scan(self):
        raw = bytearray(self._framed(generation=7) + b"\x00" * 256)
        raw[1] ^= 0xFF  # corrupt the length header itself
        region = Region(bytes(raw), self._framed(generation=6))
        picked, slots = region.superblock()
        assert picked.generation == 6
        assert slots[0] == SlotVerdict(UNREADABLE, 7)
        # The scan read slot 0 whole, and each of its bytes once.
        assert sum(n for off, n in region.reads if off < SLOT) == SLOT

    def test_torn_prefix_yields_no_stamp(self):
        framed = self._framed(generation=7)
        torn = framed[: len(framed) // 2]
        torn += b"\x00" * (len(framed) - len(torn) + 256)
        picked, slots = Region(torn, self._framed(generation=6)).superblock()
        assert picked.generation == 6
        assert slots[0] == SlotVerdict(TORN)

    def test_same_length_tear_surfaces_the_old_generation(self):
        """A tear over a same-length previous frame leaves the *old*
        stamp at the stamp position: it must read back as the old
        generation, never as proof the new write completed."""
        old = self._framed(generation=3)
        new = self._framed(generation=5)
        assert len(old) == len(new)
        cut = len(new) // 2  # the new prefix, the old tail and stamp
        torn = new[:cut] + old[cut:]
        picked, slots = Region(torn, self._framed(generation=4)).superblock()
        assert picked.generation == 4
        assert slots[0] == SlotVerdict(TORN, 3)

    def test_empty_and_garbage_slots_have_no_stamp(self):
        assert Region().superblock() == (None, [SlotVerdict(EMPTY)] * 2)
        assert Region(b"\x00" * 4096).superblock()[1][0] == SlotVerdict(EMPTY)
        picked, slots = Region(b"junkjunkjunk", self._framed(generation=2)).superblock()
        assert picked.generation == 2
        assert slots[0] == SlotVerdict(TORN)
