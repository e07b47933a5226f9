"""Unit and property tests for B-epsilon-tree nodes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Delete, Insert, PageFrame, Patch, RangeDelete
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
