"""Unit tests for the CoW block manager and superblock."""

import pytest

from repro.core.checkpoint import (
    STAMP_SIZE,
    BlockManager,
    Superblock,
    frame_superblock,
    read_slot_stamp,
    _trim,
)

MIB = 1 << 20


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

    def test_load_latest_picks_newest_valid(self):
        a = frame_superblock(self.make(generation=3).serialize())
        b = frame_superblock(self.make(generation=7).serialize())
        picked = Superblock.load_latest(a, b)
        assert picked.generation == 7
        # Corrupt the newer slot: falls back to the older.
        b = bytearray(b)
        b[20] ^= 0xFF
        picked = Superblock.load_latest(a, bytes(b))
        assert picked.generation == 3

    def test_load_latest_both_bad(self):
        assert Superblock.load_latest(b"\x00" * 64, b"junk") is None

    def test_frame_and_trim(self):
        blob = self.make().serialize()
        framed = frame_superblock(blob) + b"\x00" * 128  # slot padding
        assert _trim(framed) == blob


class TestCompletionStamp:
    """The tail stamp distinguishes torn writes from media corruption."""

    def _framed(self, generation=5):
        sb = Superblock()
        sb.generation = generation
        sb.root_ids = [1]
        sb.block_tables = [BlockManager(MIB).serialize()]
        return frame_superblock(sb.serialize())

    def test_stamp_reads_back_generation_and_length(self):
        framed = self._framed(generation=9)
        stamp = read_slot_stamp(framed + b"\x00" * 256)
        assert stamp is not None
        generation, length = stamp
        assert generation == 9
        assert length == len(framed) - 4 - STAMP_SIZE

    def test_trim_ignores_the_stamp(self):
        sb = Superblock()
        sb.generation = 4
        blob = sb.serialize()
        assert _trim(frame_superblock(blob) + b"\x00" * 64) == blob
        assert Superblock.deserialize(_trim(frame_superblock(blob))).generation == 4

    def test_payload_corruption_leaves_stamp_intact(self):
        raw = bytearray(self._framed(generation=7) + b"\x00" * 256)
        raw[20] ^= 0xFF  # flip inside the payload
        assert Superblock.deserialize(_trim(bytes(raw))) is None
        stamp = read_slot_stamp(bytes(raw))
        assert stamp is not None and stamp[0] == 7

    def test_damaged_length_prefix_falls_back_to_magic_scan(self):
        raw = bytearray(self._framed(generation=7) + b"\x00" * 256)
        raw[1] ^= 0xFF  # corrupt the length header itself
        stamp = read_slot_stamp(bytes(raw))
        assert stamp is not None and stamp[0] == 7

    def test_torn_prefix_yields_no_stamp(self):
        framed = self._framed(generation=7)
        torn = framed[: len(framed) // 2]
        torn += b"\x00" * (len(framed) - len(torn) + 256)
        assert read_slot_stamp(torn) is None

    def test_same_length_tear_surfaces_the_old_generation(self):
        """A tear over a same-length previous frame leaves the *old*
        stamp at the stamp position: it must read back as the old
        generation, never as proof the new write completed."""
        old = self._framed(generation=3)
        new = self._framed(generation=5)
        assert len(old) == len(new)
        torn = new[:512] + old[512:] if len(new) > 512 else old
        stamp = read_slot_stamp(torn + b"\x00" * 256)
        assert stamp is not None
        assert stamp[0] == 3

    def test_empty_and_garbage_slots_have_no_stamp(self):
        assert read_slot_stamp(b"") is None
        assert read_slot_stamp(b"\x00" * 4096) is None
        assert read_slot_stamp(b"junkjunkjunk") is None
