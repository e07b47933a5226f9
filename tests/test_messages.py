"""Unit tests for message types and page frames."""

import pytest

from repro.core.messages import (
    Delete,
    Insert,
    InsertByRef,
    PageFrame,
    Patch,
    RangeDelete,
    release_message,
    value_bytes,
    value_len,
)
from repro.core.node import BasementNode, InternalNode


class TestPageFrame:
    def test_refcounting(self):
        frame = PageFrame(b"data")
        assert frame.refs == 1
        frame.get()
        assert frame.refs == 2
        frame.put()
        frame.put()
        assert frame.refs == 0
        assert not frame.sealed

    def test_insert_by_ref_takes_reference_and_seals(self):
        frame = PageFrame(b"x" * 4096)
        msg = InsertByRef(b"k", frame)
        assert frame.refs == 2
        assert frame.sealed
        release_message(msg)
        assert frame.refs == 1

    def test_value_helpers(self):
        frame = PageFrame(b"abc")
        assert value_bytes(frame) == b"abc"
        assert value_bytes(b"xyz") == b"xyz"
        assert value_len(frame) == 3
        assert value_len(None) == 0


class TestPatch:
    def test_apply_to_existing(self):
        p = Patch(b"k", 2, b"ZZ")
        assert p.apply_to(b"abcdef") == b"abZZef"

    def test_apply_extends_short_value(self):
        p = Patch(b"k", 4, b"XY")
        assert p.apply_to(b"ab") == b"ab\x00\x00XY"

    def test_apply_to_missing_value(self):
        p = Patch(b"k", 3, b"Q")
        assert p.apply_to(None) == b"\x00\x00\x00Q"

    def test_apply_is_idempotent(self):
        p = Patch(b"k", 1, b"mm")
        once = p.apply_to(b"abcdef")
        assert p.apply_to(once) == once


class TestRangeDelete:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RangeDelete(b"b", b"a")
        with pytest.raises(ValueError):
            RangeDelete(b"a", b"a")

    def test_covers_and_overlaps(self):
        rd = RangeDelete(b"b", b"d")
        assert rd.covers_key(b"b")
        assert rd.covers_key(b"c")
        assert not rd.covers_key(b"d")
        assert rd.covers_range(b"b", b"c")
        assert not rd.covers_range(b"a", b"c")
        assert rd.overlaps(b"c", b"z")
        assert not rd.overlaps(b"d", b"z")


class TestSizes:
    def test_nbytes_monotone_in_value(self):
        small = Insert(b"key", b"v")
        big = Insert(b"key", b"v" * 100)
        assert big.nbytes() > small.nbytes()

    def test_delete_nbytes(self):
        assert Delete(b"abc").nbytes() == Delete.HEADER + 3

    def test_range_delete_nbytes(self):
        rd = RangeDelete(b"aa", b"bb")
        assert rd.nbytes() == RangeDelete.HEADER + 4

    @pytest.mark.parametrize(
        "msg,want",
        [
            (Insert(b"key", b"v" * 7, 1), 16 + 3 + 7),
            (Insert(b"key", PageFrame(b"p" * 4096), 1), 16 + 3 + 4096),
            (InsertByRef(b"key", PageFrame(b"p" * 100), 1), 16 + 3 + 100),
            (Delete(b"abc", 1), 16 + 3),
            (Patch(b"key", 2, b"PPPP", 1), 16 + 3 + 4 + 4),
            (RangeDelete(b"aa", b"bbb", 1), 16 + 2 + 3),
        ],
        ids=lambda v: getattr(v, "kind", None),
    )
    def test_size_is_kept_from_construction(self, msg, want):
        """``nbytes()`` reads what the constructor measured; the
        recount (``measure``, the sanitizer's oracle) agrees."""
        assert msg.nbytes() == msg.size == msg.measure() == want

    def test_clipped_range_delete_copies_measure_themselves(self):
        rd = RangeDelete(b"b", b"wxyz", 5)
        parts = [
            rd.clip(b"c", None),
            rd.clip(None, b"mm"),
            rd.clip(b"dd", b"ee"),
            *rd.split_at(b"pivot"),
        ]
        assert all(part is not rd for part in parts)
        for part in parts:
            assert part.nbytes() == part.measure() == 16 + len(part.start) + len(part.end)
        assert rd.clip(None, None) is rd and rd.nbytes() == 16 + 1 + 4

    def test_vfs_patch_in_place_leaves_a_by_ref_message_its_size(self, monkeypatch):
        """The blind-patch path rewrites a clean cached page's bytes in
        place, and under page sharing that frame is the very one a
        buffered ``InsertByRef`` holds: the bytes change, the length
        (what the message's kept size counted) does not."""
        from repro.betrfs.filesystem import MountOptions, make_betrfs
        from repro.core.tree import BeTree

        seen = []
        enqueue = BeTree._enqueue_root
        monkeypatch.setattr(
            BeTree, "_enqueue_root", lambda tree, msg: seen.append(msg) or enqueue(tree, msg)
        )
        fs = make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32))
        fs.vfs.create("/f")
        fs.vfs.write("/f", 0, b"a" * 8192)
        fs.vfs.fsync("/f")
        by_ref = [m for m in seen if m.kind == "insert_by_ref"]
        assert len(by_ref) == 2 and all(m.frame.sealed for m in by_ref)
        before = [bytes(m.frame.data) for m in by_ref]
        fs.vfs.write("/f", 10, b"ZZZZ")  # small, partial, page clean: a patch
        assert seen[-1].kind == "patch"
        assert by_ref[0].frame.data[8:16] == b"aaZZZZaa" != before[0][8:16]
        for m in by_ref:
            assert m.nbytes() == m.measure()
        assert fs.vfs.read("/f", 8, 8) == b"aaZZZZaa"


# ----------------------------------------------------------------------
# What each kind *does*: the one value transition and the one set of
# key-range predicates every consumer (flush-to-leaf, point query, range
# scan, routing, PacMan, the checkers) calls.
# ----------------------------------------------------------------------
OLD, STALE = (b"abcdef", 3), (b"abcdef", 9)  # pair MSN below / above msn=5


class TestValueTransition:
    @pytest.mark.parametrize(
        "make,on_absent,on_present",
        [
            (lambda: Insert(b"k", b"new", 5), (b"new", 5), (b"new", 5)),
            (lambda: Delete(b"k", 5), None, None),
            (lambda: Patch(b"k", 2, b"ZZ", 5), (b"\x00\x00ZZ", 5), (b"abZZef", 5)),
            (lambda: RangeDelete(b"a", b"z", 5), None, None),
        ],
    )
    def test_absent_present_stale(self, make, on_absent, on_present):
        msg = make()
        assert msg.transition(None) == on_absent
        assert msg.transition(OLD) == on_present
        assert not msg.is_stale(None) and not msg.is_stale(OLD)
        # At or below the pair's MSN the message is a no-op.
        assert msg.is_stale(STALE) and msg.transition(STALE) is STALE
        assert msg.is_stale((b"x", 5)) and msg.transition((b"x", 5)) == (b"x", 5)

    def test_patch_on_a_deleted_key_starts_from_zeros(self):
        pair = Delete(b"k", 4).transition(OLD)
        assert pair is None
        assert Patch(b"k", 1, b"Q", 5).transition(pair) == (b"\x00Q", 5)

    def test_insert_by_ref_transition_is_pure(self):
        frame = PageFrame(b"p" * 4096)
        msg = InsertByRef(b"k", frame, 5)
        assert msg.transition(OLD) == (frame, 5)
        assert msg.transition(STALE) is STALE
        assert frame.refs == 2  # the query path takes no reference

    def test_basement_takes_exactly_one_reference_for_by_ref(self):
        frame = PageFrame(b"p" * 4096)
        msg = InsertByRef(b"k", frame, 5)
        basement = BasementNode()
        assert basement.apply(msg)
        assert frame.refs == 3  # creator + message + basement
        assert not basement.apply(msg)  # now stale: no second reference
        assert frame.refs == 3
        release_message(msg)
        assert frame.refs == 2
        # A copied page (Insert of a frame) is the message's own: the
        # basement takes a reference, releasing the message drops its
        # one, and the basement's is left — as a by-ref page's is.
        copy = PageFrame(b"c" * 4096)
        copied = Insert(b"c", copy, 6)
        basement.apply(copied)
        assert copy.refs == 2
        release_message(copied)
        assert copy.refs == 1
        # An insert dropped without reaching a leaf (PacMan, an evicted
        # buffer) leaves no reference behind.
        dropped = PageFrame(b"d" * 4096)
        release_message(Insert(b"d", dropped, 7))
        assert dropped.refs == 0
        assert Insert(b"c", copy, 6).carried_frame() is copy
        assert msg.carried_frame() is frame
        assert Insert(b"c", b"bytes", 6).carried_frame() is None


class TestKeyRangePredicates:
    PIVOTS = [b"g", b"p"]  # children: [None, g) [g, p) [p, None)

    def test_point_message(self):
        msg = Delete(b"g", 1)
        assert msg.affects(b"g") and not msg.affects(b"h")
        assert msg.touches(b"g", b"p") and msg.within(b"g", b"p")
        assert not msg.touches(None, b"g") and msg.touches(None, None)
        assert list(msg.route(self.PIVOTS)) == [1]  # a pivot routes right
        assert msg.split_at(b"g") == (None, msg)
        assert msg.split_at(b"h") == (msg, None)

    @pytest.mark.parametrize(
        "start,end,left,right",
        [
            (b"c", b"k", (b"c", b"g"), (b"g", b"k")),  # straddles the pivot
            (b"c", b"g", (b"c", b"g"), None),  # abuts it from the left
            (b"g", b"k", None, (b"g", b"k")),  # abuts it from the right
            (b"a", b"c", (b"a", b"c"), None),  # misses it
        ],
    )
    def test_range_delete_split_at_pivot(self, start, end, left, right):
        msg = RangeDelete(start, end, 7)
        halves = msg.split_at(b"g")
        for half, want, (lo, hi) in zip(halves, (left, right), ((None, b"g"), (b"g", None))):
            assert msg.touches(lo, hi) == (want is not None)
            assert msg.within(lo, hi) == (want == (start, end))
            if want is None:
                assert half is None
            else:
                assert (half.start, half.end, half.msn) == (*want, 7)
                assert (half is msg) == (want == (start, end))

    def test_range_delete_routes_to_exactly_the_children_it_touches(self):
        for start, end, want in [
            (b"a", b"c", [0]),
            (b"c", b"g", [0]),  # end is exclusive: child [g, p) is untouched
            (b"c", b"h", [0, 1]),
            (b"g", b"p", [1]),
            (b"e", b"r", [0, 1, 2]),
            (b"p", b"z", [2]),
        ]:
            msg = RangeDelete(start, end, 1)
            assert list(msg.route(self.PIVOTS)) == want
            node = InternalNode(1, 1, list(self.PIVOTS), [10, 11, 12])
            node.enqueue(msg)
            assert [i for i in range(3) if msg in node.messages_for_child(i)] == want
