"""Unit and property tests for B-epsilon-tree nodes."""

import bisect
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.errors import TreeInvariantError
from repro.core.messages import (
    Delete,
    Insert,
    InsertByRef,
    PageFrame,
    Patch,
    RangeDelete,
)
from repro.core.node import BasementNode, InternalNode, LeafNode


class TestBasementNode:
    def test_set_get(self):
        b = BasementNode()
        b.set(b"k1", b"v1", msn=1)
        assert b.get(b"k1") == (True, b"v1")
        assert b.get(b"nope") == (False, None)

    def test_overwrite_updates_msn_and_size(self):
        b = BasementNode()
        b.set(b"k", b"short", msn=1)
        size1 = b.nbytes
        b.set(b"k", b"much longer value", msn=2)
        assert b.nbytes > size1
        assert b.get_with_msn(b"k") == (True, b"much longer value", 2)

    def test_remove(self):
        b = BasementNode()
        b.set(b"k", b"v", msn=1)
        assert b.remove(b"k")
        assert not b.remove(b"k")
        assert b.nbytes == 0

    def test_remove_range_respects_msn(self):
        b = BasementNode()
        b.set(b"a", b"1", msn=1)
        b.set(b"b", b"2", msn=9)
        b.set(b"c", b"3", msn=2)
        removed = b.remove_range(b"a", b"z", before_msn=5)
        assert removed == 2
        assert b.get(b"b") == (True, b"2")  # newer than the range delete

    def test_stale_message_is_noop(self):
        b = BasementNode()
        b.set(b"k", b"new", msn=10)
        applied = b.apply(Insert(b"k", b"old", msn=5))
        assert not applied
        assert b.get(b"k") == (True, b"new")

    def test_page_frame_refcounts_on_replace(self):
        b = BasementNode()
        f1, f2 = PageFrame(b"1" * 4096), PageFrame(b"2" * 4096)
        b.set(b"k", f1, msn=1)
        b.set(b"k", f2, msn=2)
        assert f1.refs == 0  # released when replaced

    def test_split_preserves_order_and_sizes(self):
        b = BasementNode()
        for i in range(10):
            b.set(f"k{i:02d}".encode(), b"v", msn=i)
        total = b.nbytes
        right = b.split()
        assert len(b) == 5 and len(right) == 5
        assert b.nbytes + right.nbytes == total
        assert b.last_key() < right.first_key()
        assert list(right.msns) == [5, 6, 7, 8, 9]

    def test_patch_apply(self):
        b = BasementNode()
        b.set(b"k", b"abcdef", msn=1)
        b.apply(Patch(b"k", 2, b"XX", msn=2))
        assert b.get(b"k") == (True, b"abXXef")

    @pytest.mark.parametrize("msn,slots", [(9, 10), (0, 11)])  # applied; stale where present
    def test_apply_finds_the_slot_once(self, monkeypatch, msn, slots):
        """One bisect per applied message (a count, not a timing): the
        slot the staleness test looked at is the slot written."""
        b = BasementNode()
        for i in range(10):
            b.set(b"k%02d" % i, b"v", msn=1)
        calls = []
        spy = lambda keys, key: calls.append(key) or bisect.bisect_left(keys, key)
        monkeypatch.setattr(
            "repro.core.node.bisect", SimpleNamespace(bisect_left=spy)
        )
        for msg in (
            Insert(b"k03", b"new", msn),
            Insert(b"k035", b"new", msn),
            Delete(b"k04", msn),
            Patch(b"k05", 0, b"P", msn),
        ):
            calls.clear()
            b.apply(msg)
            assert calls == [msg.key]
        assert len(b) == slots


class TestLeafNode:
    def make_leaf(self, n=20):
        leaf = LeafNode(1)
        for i in range(n):
            leaf.apply(Insert(f"k{i:03d}".encode(), b"v" * 50, msn=i + 1), 256)
        return leaf

    def test_basement_splits_on_size(self):
        leaf = self.make_leaf(20)
        assert len(leaf.basements) > 1
        # Ordering across basements.
        firsts = [b.first_key() for b in leaf.basements]
        assert firsts == sorted(firsts)

    def test_get_routes_to_right_basement(self):
        leaf = self.make_leaf(30)
        for i in range(30):
            present, v = leaf.get(f"k{i:03d}".encode())
            assert present

    def test_range_delete_and_prune(self):
        leaf = self.make_leaf(30)
        removed = leaf.apply_range_delete(RangeDelete(b"k000", b"k015", msn=99))
        assert removed == 15
        leaf.prune_empty_basements()
        assert leaf.pair_count() == 15
        assert leaf.get(b"k014") == (False, None)
        assert leaf.get(b"k015")[0]

    def test_range_delete_refuses_an_unloaded_basement(self):
        """A stub's pairs are on disk only: a range delete that passed
        it by (and then pruned it, as this once did) would lose them
        without a trace."""
        leaf = self.make_leaf(30)
        stub = BasementNode()
        stub.loaded = False
        stub.stub_first_key = leaf.basements[1].first_key()
        before = leaf.nbytes()
        leaf.replace_basement(1, stub)
        assert leaf.nbytes() < before
        with pytest.raises(TreeInvariantError, match="unloaded basement"):
            leaf.apply_range_delete(RangeDelete(b"k000", b"k999", msn=99))
        assert stub in leaf.basements
        leaf.prune_empty_basements()
        assert stub in leaf.basements  # the one predicate keeps stubs

    def test_nbytes_is_kept_not_summed(self):
        """``nbytes()`` (asked per touched node per op by the cache)
        reads a total the mutators keep; it never walks the basements."""

        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("nbytes() walked the basements")

        leaf = self.make_leaf(120)
        assert len(leaf.basements) >= 30
        want = sum(b.nbytes for b in leaf.basements)
        walkable, leaf.basements = leaf.basements, Unwalkable(leaf.basements)
        assert leaf.nbytes() == want
        leaf.basements = walkable
        # ... and every mutator keeps it: apply (grow, shrink, basement
        # split), range delete (+ prune), leaf split.
        leaf.apply(Insert(b"k005", b"w" * 300, msn=500), 256)
        leaf.apply(Delete(b"k007", msn=501), 256)
        leaf.apply(Insert(b"k005", b"", msn=400), 256)  # stale
        assert leaf.nbytes() == sum(b.nbytes for b in leaf.basements)
        leaf.apply_range_delete(RangeDelete(b"k010", b"k040", msn=502))
        assert leaf.nbytes() == sum(b.nbytes for b in leaf.basements)
        right, _pivot = leaf.split(2)
        for half in (leaf, right):
            assert half.nbytes() == sum(b.nbytes for b in half.basements) > 0

    def test_empty_basements_do_not_break_search(self):
        leaf = self.make_leaf(30)
        # Delete a middle run, emptying at least one basement.
        for i in range(8, 16):
            leaf.apply(Delete(f"k{i:03d}".encode(), msn=100 + i), 256)
        assert leaf.get(b"k020")[0]
        assert leaf.get(b"k004")[0]

    def test_leaf_split(self):
        leaf = self.make_leaf(40)
        right, pivot = leaf.split(2)
        assert right.first_key() == pivot
        assert leaf.last_key() < pivot
        assert leaf.pair_count() + right.pair_count() == 40

    def test_items_sorted(self):
        leaf = self.make_leaf(25)
        items = [k for k, _ in leaf.items()]
        assert items == sorted(items)


class TestInternalNode:
    def make(self):
        return InternalNode(1, 1, [b"g", b"p"], [10, 11, 12])

    def test_child_routing(self):
        node = self.make()
        assert node.child_index_for(b"a") == 0
        assert node.child_index_for(b"g") == 1  # pivot routes right
        assert node.child_index_for(b"m") == 1
        assert node.child_index_for(b"z") == 2

    def test_child_range(self):
        node = self.make()
        assert node.child_range(0) == (None, b"g")
        assert node.child_range(1) == (b"g", b"p")
        assert node.child_range(2) == (b"p", None)

    def test_enqueue_and_indexes(self):
        node = self.make()
        node.enqueue(Insert(b"a", b"1", msn=1))
        node.enqueue(Delete(b"a", msn=2))
        node.enqueue(RangeDelete(b"a", b"c", msn=3))
        assert node.buffer_bytes > 0
        pend = node.pending_for_key(b"a")
        assert len(pend) == 3
        assert node.pending_for_key(b"x") == []

    def test_point_keys_in_range(self):
        node = self.make()
        for k in (b"a", b"c", b"e", b"g"):
            node.enqueue(Insert(k, b"v", msn=1))
        assert node.point_keys_in_range(b"b", b"f") == [b"c", b"e"]
        assert node.point_keys_in_range(None, None) == [b"a", b"c", b"e", b"g"]

    def test_remove_messages_reindexes(self):
        node = self.make()
        m1 = Insert(b"a", b"1", msn=1)
        m2 = Insert(b"b", b"2", msn=2)
        node.enqueue(m1)
        node.enqueue(m2)
        node.remove_messages([m1], release=False)
        assert node.pending_for_key(b"a") == []
        assert node.pending_for_key(b"b") == [m2]
        assert node.buffer_bytes == m2.nbytes()

    def test_remove_messages_unindexes_only_what_it_moves(self, monkeypatch):
        """A flush taking k of B buffered messages re-adds none of the
        B - k that stay (a count, not a timing), keeps each key's
        arrival order, and leaves the sorted-key snapshot alone unless
        a key left."""
        node = self.make()
        msgs = [Insert(b"k%02d" % (i % 20), b"v", msn=i + 1) for i in range(60)]
        msgs.insert(30, RangeDelete(b"k03", b"k05", msn=99))
        for m in msgs:
            node.enqueue(m)
        keys = node.point_keys_in_range(None, None)
        snapshot = node._sorted_keys
        assert snapshot == keys
        adds = []
        monkeypatch.setattr(
            InternalNode, "enqueue", lambda self, msg: adds.append(msg)
        )
        node.remove_messages([msgs[2], msgs[43]], release=False)  # both "k02"
        assert adds == []
        assert node.point_index[b"k02"] == [msgs[22]]
        assert node._sorted_keys is snapshot  # no key left: it stands
        node.remove_messages([msgs[22], msgs[30]], release=False)
        assert adds == []
        assert b"k02" not in node.point_index and not node.range_msgs
        assert node.point_keys_in_range(None, None) == sorted(set(keys) - {b"k02"})

    def test_fattest_child(self):
        node = self.make()
        node.enqueue(Insert(b"a", b"small", msn=1))
        node.enqueue(Insert(b"m", b"x" * 500, msn=2))
        assert node.fattest_child() == 1

    def test_messages_for_child_includes_overlapping_ranges(self):
        node = self.make()
        rd = RangeDelete(b"e", b"r", msn=1)  # spans children 0,1,2
        node.enqueue(rd)
        for idx in range(3):
            assert rd in node.messages_for_child(idx)

    def test_split_partitions_buffer(self):
        node = InternalNode(1, 1, [b"c", b"f", b"j"], [1, 2, 3, 4])
        node.enqueue(Insert(b"a", b"1", msn=1))
        node.enqueue(Insert(b"k", b"2", msn=2))
        node.enqueue(RangeDelete(b"b", b"z", msn=3))
        right, pivot = node.split(99)
        assert pivot == b"f"
        # Left keeps 'a'; right keeps 'k'; the range delete is clipped
        # into both halves.
        assert node.pending_for_key(b"a")
        assert right.pending_for_key(b"k")
        assert any(m.is_range for m in node.buffer)
        assert any(m.is_range for m in right.buffer)
        for m in node.buffer:
            if m.is_range:
                assert m.end <= pivot
        for m in right.buffer:
            if m.is_range:
                assert m.start >= pivot


# ----------------------------------------------------------------------
# Property: a basement behaves like a sorted dict under random ops.
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "remove", "remove_range"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=60,
)


@settings(max_examples=60)
@given(ops)
def test_basement_matches_model(op_list):
    b = BasementNode()
    model = {}
    msn = 0
    for op, x, y in op_list:
        msn += 1
        kx = f"k{x:02d}".encode()
        if op == "set":
            b.set(kx, b"v%d" % y, msn=msn)
            model[kx] = b"v%d" % y
        elif op == "remove":
            b.remove(kx)
            model.pop(kx, None)
        else:
            lo, hi = sorted((x, y))
            klo, khi = f"k{lo:02d}".encode(), f"k{hi:02d}".encode()
            b.remove_range(klo, khi)
            for k in [k for k in model if klo <= k < khi]:
                del model[k]
    assert dict(b.items()) == model
    assert list(b.keys) == sorted(model)


# ----------------------------------------------------------------------
# Property: whatever sequence of buffer mutations an internal node sees,
# everything it keeps beside the buffer (byte total, point index with
# per-key arrival order, range list, sorted-key snapshot, per-child
# partitions with their arrival order and byte totals) equals a
# from-scratch rebuild, and the derived answers agree.
# ----------------------------------------------------------------------
def rebuilt(node):
    """A scratch node indexing ``node``'s buffer from nothing."""
    oracle = InternalNode(0, node.height, list(node.pivots), list(node.children))
    oracle.set_buffer(list(node.buffer))
    return oracle


def assert_kept_equals_rebuilt(node):
    oracle = rebuilt(node)
    assert node.buffer_bytes == sum(m.measure() for m in node.buffer)
    assert node.point_index == oracle.point_index  # lists: per-key order
    assert node.range_msgs == oracle.range_msgs
    for lo, hi in ((None, None), (b"k03", b"k11"), (b"k07", None), (None, b"k02")):
        assert node.point_keys_in_range(lo, hi) == oracle.point_keys_in_range(lo, hi)
    assert node.nbytes() == oracle.nbytes()
    # Each child's partition is the buffer's messages routed to it, in
    # buffer order, and its total their summed sizes.
    totals = []
    for idx in range(len(node.children)):
        lo, hi = node.child_range(idx)
        routed = [m for m in node.buffer if m.touches(lo, hi)]
        for got in (node.messages_for_child(idx), oracle.messages_for_child(idx)):
            assert len(got) == len(routed)
            assert all(g is m for g, m in zip(got, routed))
        totals.append(sum(m.measure() for m in routed))
    assert node.child_bytes == oracle.child_bytes == totals
    assert node.fattest_child() == totals.index(max(totals))


def _key(x):
    return b"k%02d" % x


def _message(kind, x, y, msn):
    if kind == "insert":
        return Insert(_key(x), b"v" * y, msn)
    if kind == "insert_by_ref":
        return InsertByRef(_key(x), PageFrame(bytes([y]) * 4096), msn)
    if kind == "delete":
        return Delete(_key(x), msn)
    if kind == "patch":
        return Patch(_key(x), y % 8, b"PP", msn)
    lo, hi = sorted((x, y))
    return RangeDelete(_key(lo), _key(hi + 1), msn)  # straddles pivots


KINDS = ["insert", "insert_by_ref", "delete", "patch", "range_delete"]
node_ops = st.lists(
    st.tuples(
        st.sampled_from(
            KINDS
            + ["remove", "remove_keep_refs", "remove_spread"]
            + ["set_buffer", "split", "add_child"]
        ),
        st.integers(0, 14),  # few keys: duplicates are the norm
        st.integers(0, 14),
    ),
    max_size=50,
)


@settings(max_examples=120, deadline=None)
@given(node_ops)
def test_internal_node_keeps_what_a_rebuild_would_build(op_list):
    nodes = [InternalNode(1, 1, [_key(4), _key(9)], [10, 11, 12])]
    next_id = 100
    for msn, (op, x, y) in enumerate(op_list, start=1):
        node = nodes[x % len(nodes)]
        if op in KINDS:
            node.enqueue(_message(op, x, y, msn))
        elif op in ("remove", "remove_keep_refs"):
            # What a flush does: everything owed to one child leaves.
            doomed = node.messages_for_child(y % len(node.children))[: x + 1]
            frames = [m.frame for m in doomed if m.kind == "insert_by_ref"]
            refs = [f.refs for f in frames]
            node.remove_messages(doomed, release=op == "remove")
            drop = 1 if op == "remove" else 0
            assert [f.refs for f in frames] == [r - drop for r in refs]
        elif op == "remove_spread":
            # Messages of several children leave at once (a flush or an
            # apply-on-query takes one child's; this is the general case).
            doomed = node.buffer[y % 3 :: 1 + x % 3]
            node.remove_messages(doomed, release=False)
        elif op == "set_buffer":
            # What owed range-delete parts do: re-sort into MSN order.
            node.set_buffer(sorted(node.buffer[y:] + node.buffer[:y], key=lambda m: m.msn))
        elif op == "split" and len(node.children) >= 2:
            next_id += 1
            right, pivot = node.split(next_id)
            assert all(m.within(None, pivot) for m in node.buffer)
            assert all(m.within(pivot, None) for m in right.buffer)
            nodes.append(right)
        elif op == "add_child":
            idx = y % len(node.children)
            lo, hi = node.child_range(idx)
            pivot = (lo or b"k") + b"+" * (1 + x % 3)
            if hi is None or pivot < hi:
                next_id += 1
                node.add_child(pivot, next_id, idx)
        for each in nodes:
            assert_kept_equals_rebuilt(each)
