"""Functional and property tests for the B-epsilon-tree."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.errors import TreeInvariantError, require
from repro.core.cache import NodeCache
from repro.core.env import DATA, META
from repro.core.keys import intersect
from repro.core.messages import PageFrame, value_bytes
from repro.core.node import InternalNode, LeafNode
from repro.core.tree import SEARCH_STEPS, search_steps
from tests.conftest import build_env, recounted_node_bytes, reopen

from repro.core.config import BeTreeConfig
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.model.profiles import NULL_DEVICE


def fresh_env(**cfg_overrides):
    cfg = BeTreeConfig()
    cfg.node_size = 8192
    cfg.basement_size = 2048
    cfg.buffer_size = 4096
    cfg.fanout = 4
    cfg.cache_bytes = 1 << 20
    for k, v in cfg_overrides.items():
        setattr(cfg, k, v)
    device = BlockDevice(SimClock(), NULL_DEVICE)
    return build_env(device, cfg)


class TestPointOperations:
    def test_insert_get(self):
        env = fresh_env()
        env.insert(META, b"k", b"v")
        assert env.get(META, b"k") == b"v"

    def test_overwrite(self):
        env = fresh_env()
        env.insert(META, b"k", b"v1")
        env.insert(META, b"k", b"v2")
        assert env.get(META, b"k") == b"v2"

    def test_delete(self):
        env = fresh_env()
        env.insert(META, b"k", b"v")
        env.delete(META, b"k")
        assert env.get(META, b"k") is None

    def test_delete_missing_is_noop(self):
        env = fresh_env()
        env.delete(META, b"ghost")
        assert env.get(META, b"ghost") is None

    def test_patch_blind_update(self):
        env = fresh_env()
        env.insert(META, b"k", b"abcdef")
        env.patch(META, b"k", 2, b"XY")
        assert env.get(META, b"k") == b"abXYef"

    def test_patch_on_missing_key_materializes(self):
        env = fresh_env()
        env.patch(META, b"k", 3, b"Z")
        assert env.get(META, b"k") == b"\x00\x00\x00Z"

    def test_many_inserts_split_the_tree(self):
        env = fresh_env()
        for i in range(3000):
            env.insert(META, b"key%05d" % i, b"value%05d" % i)
        tree = env.meta
        root = tree._load_node(tree.root_id)
        assert isinstance(root, InternalNode)
        assert tree.stats.leaf_splits > 0
        for i in range(0, 3000, 117):
            assert env.get(META, b"key%05d" % i) == b"value%05d" % i

    def test_interleaved_ops(self):
        env = fresh_env()
        for i in range(1000):
            env.insert(META, b"k%04d" % i, b"v%d" % i)
            if i % 3 == 0:
                env.delete(META, b"k%04d" % (i // 2))
        for i in range(1000):
            expected = None if (i % 3 == 0 or (i * 2 < 1000 and (i * 2) % 3 == 0)) else b"v%d" % i
            # Recompute expectation directly:
        model = {}
        env2 = fresh_env()
        for i in range(1000):
            model[b"k%04d" % i] = b"v%d" % i
            env2.insert(META, b"k%04d" % i, b"v%d" % i)
            if i % 3 == 0:
                model.pop(b"k%04d" % (i // 2), None)
                env2.delete(META, b"k%04d" % (i // 2))
        for k, v in model.items():
            assert env2.get(META, k) == v


class TestRangeOperations:
    def test_range_delete(self):
        env = fresh_env()
        for i in range(100):
            env.insert(META, b"k%03d" % i, b"v")
        env.range_delete(META, b"k010", b"k020")
        for i in range(100):
            got = env.get(META, b"k%03d" % i)
            if 10 <= i < 20:
                assert got is None
            else:
                assert got == b"v"

    def test_range_query_ordering_and_bounds(self):
        env = fresh_env()
        for i in range(0, 100, 2):
            env.insert(META, b"k%03d" % i, b"v%d" % i)
        rows = env.range_query(META, b"k010", b"k030")
        keys = [k for k, _ in rows]
        assert keys == [b"k%03d" % i for i in range(10, 30, 2)]
        assert keys == sorted(keys)

    def test_range_query_limit(self):
        env = fresh_env()
        for i in range(50):
            env.insert(META, b"k%02d" % i, b"v")
        rows = env.range_query(META, b"k00", b"k99", limit=7)
        assert len(rows) == 7
        assert rows[0][0] == b"k00"

    def test_range_query_sees_pending_messages(self):
        env = fresh_env()
        for i in range(30):
            env.insert(META, b"k%02d" % i, b"v")
        env.range_delete(META, b"k05", b"k10")
        env.insert(META, b"k07", b"resurrected")
        rows = dict(env.range_query(META, b"k00", b"k99"))
        assert b"k06" not in rows
        assert rows[b"k07"] == b"resurrected"

    def test_range_query_over_leaf_boundary_with_buffered_inserts(self):
        """Inserts still buffered in an ancestor belong to exactly one
        leaf of a multi-leaf scan: no key may come back twice."""
        env = fresh_env()
        for i in range(0, 600, 2):
            env.insert(META, b"k%04d" % i, b"v" * 40)
        for i in range(1, 600, 50):
            env.insert(META, b"k%04d" % i, b"new")
        root = env.meta._load_node(env.meta.root_id)
        assert isinstance(root, InternalNode) and len(root.children) >= 2
        assert root.buffer, "the late inserts must still be unflushed"
        keys = [k for k, _ in env.range_query(META, b"", b"\xff")]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == 300 + 12

    def test_flushed_range_delete_still_reaches_sibling_leaves(self):
        """A range delete spanning several children is flushed to one
        child at a time; the parts it still owes the siblings stay
        buffered instead of being dropped with the batch."""
        env = fresh_env(node_size=1024, basement_size=256, buffer_size=512)
        for i in range(61):
            env.insert(META, b"key%02d" % i, b"val")
        root = env.meta._load_node(env.meta.root_id)
        assert isinstance(root, InternalNode) and len(root.children) >= 3
        env.range_delete(META, b"key05", b"key55")
        for i in range(100):  # all routed right of the range: flushes it
            env.insert(META, b"zz%03d" % i, b"x" * 30)
        assert env.meta.stats.flushes > 0
        keys = [k for k, _ in env.range_query(META, b"", b"\xff")]
        assert [k for k in keys if k < b"zz"] == (
            [b"key%02d" % i for i in range(5)]
            + [b"key%02d" % i for i in range(55, 61)]
        )
        assert env.get(META, b"key30") is None

    def test_empty_range(self):
        env = fresh_env()
        env.insert(META, b"m", b"v")
        assert env.meta.empty_range(b"a", b"c")
        assert not env.meta.empty_range(b"a", b"z")


class TestPageValues:
    def test_page_roundtrip_by_value(self):
        env = fresh_env()
        page = PageFrame(b"\x42" * 4096)
        env.insert(DATA, b"f\x00\x00\x00\x00\x01", page)
        got = env.get(DATA, b"f\x00\x00\x00\x00\x01")
        assert value_bytes(got) == b"\x42" * 4096

    def test_page_roundtrip_by_ref(self):
        env = fresh_env(page_sharing=True)
        page = PageFrame(b"\x43" * 4096)
        env.insert(DATA, b"g\x00\x00\x00\x00\x01", page, by_ref=True)
        got = env.get(DATA, b"g\x00\x00\x00\x00\x01")
        assert value_bytes(got) == b"\x43" * 4096


class TestApplyOnQueryPolicies:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_correctness_under_policy(self, lazy):
        env = fresh_env(lazy_apply_on_query=lazy)
        model = {}
        rng = random.Random(5)
        for step in range(2500):
            i = rng.randrange(400)
            k = b"k%03d" % i
            op = rng.random()
            if op < 0.55:
                v = b"v%d" % step
                env.insert(META, k, v)
                model[k] = v
            elif op < 0.7:
                env.delete(META, k)
                model.pop(k, None)
            elif op < 0.8:
                lo, hi = sorted((i, rng.randrange(400)))
                klo, khi = b"k%03d" % lo, b"k%03d" % hi
                if klo < khi:
                    env.range_delete(META, klo, khi)
                    for dead in [x for x in model if klo <= x < khi]:
                        del model[dead]
            else:
                assert env.get(META, k) == model.get(k)
        for k, v in model.items():
            assert env.get(META, k) == v
        rows = dict(env.range_query(META, b"k000", b"k999"))
        assert rows == model

    def test_eager_policy_does_more_aoq_work(self):
        eager = fresh_env(lazy_apply_on_query=False)
        lazy = fresh_env(lazy_apply_on_query=True)
        for env in (eager, lazy):
            for i in range(2000):
                env.insert(META, b"k%04d" % i, b"v")
            for i in range(0, 2000, 7):
                env.get(META, b"k%04d" % i)
        assert eager.meta.stats.aoq_examined > lazy.meta.stats.aoq_examined


class TestEvictionAndReload:
    def test_cold_reads_after_eviction(self):
        env = fresh_env(cache_bytes=16 * 1024)  # tiny cache
        for i in range(2000):
            env.insert(META, b"key%05d" % i, b"value%03d" % (i % 97))
        assert env.cache.evictions > 0
        for i in range(0, 2000, 59):
            assert env.get(META, b"key%05d" % i) == b"value%03d" % (i % 97)
        assert env.meta.stats.node_reads > 0

    def test_internal_sizes_stay_current_through_splits_and_reloads(self):
        """add_child, internal and root splits, and decode each leave
        ``InternalNode.nbytes()`` equal to a recount."""
        env = fresh_env(cache_bytes=16 * 1024)
        for i in range(3000):
            env.insert(META, b"key%05d" % (i * 7919 % 3000), b"value%03d" % (i % 97))
            if i % 50 == 0:
                assert_kept_sizes_are_current(env)
        stats = env.meta.stats
        assert stats.internal_splits > 0 and stats.root_splits > 1
        env.close()
        # A second mount of the same device: every node it holds came
        # through decode_node.
        cold = reopen(env.storage.device, env.config)
        for i in range(0, 3000, 37):
            assert cold.get(META, b"key%05d" % i) is not None
            assert_kept_sizes_are_current(cold)
        assert any(
            isinstance(node, InternalNode) for node, _owner in cold.cache._nodes.values()
        )


# ----------------------------------------------------------------------
# Property: the tree matches a dict model under random op sequences,
# across feature-flag combinations.
# ----------------------------------------------------------------------
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "range_delete", "patch"]),
        st.integers(0, 60),
        st.integers(0, 60),
    ),
    max_size=80,
)


def assert_kept_sizes_are_current(env):
    """What a node keeps so the cache's per-op ``nbytes()`` is O(1) —
    an internal node's pivot bytes, a leaf's pair bytes, a message's
    size — equals a recount, for every cached node."""
    for node, _owner in env.cache._nodes.values():
        assert node.nbytes() == recounted_node_bytes(node)
        if isinstance(node, InternalNode):
            recount = sum(len(p) + 8 for p in node.pivots) + 8 * len(node.children)
            assert node.pivot_bytes == recount


def _apply_ops(env, op_list):
    """Drive ``env`` with ``op_list``; returns the dict model of META."""
    model = {}
    for n, (op, x, y) in enumerate(op_list):
        assert_kept_sizes_are_current(env)
        k = b"key%02d" % x
        if op == "insert":
            v = b"val%02d-%d" % (y, n)
            env.insert(META, k, v)
            model[k] = v
        elif op == "delete":
            env.delete(META, k)
            model.pop(k, None)
        elif op == "range_delete":
            lo, hi = sorted((x, y))
            klo, khi = b"key%02d" % lo, b"key%02d" % hi
            if klo < khi:
                env.range_delete(META, klo, khi)
                for dead in [kk for kk in model if klo <= kk < khi]:
                    del model[dead]
        else:  # patch
            env.patch(META, k, y % 8, b"PP")
            base = model.get(k, b"")
            end = (y % 8) + 2
            if len(base) < end:
                base = base + b"\x00" * (end - len(base))
            model[k] = base[: y % 8] + b"PP" + base[end:]
    return model


query_strategy = st.lists(
    st.tuples(st.integers(0, 61), st.integers(0, 61), st.integers(1, 5)),
    max_size=6,
)


@settings(max_examples=25, deadline=None)
@given(op_strategy, st.booleans(), st.booleans(), query_strategy)
# One blind patch buffered in the root above >= 2 leaves: the scan must
# emit key30 once, not once per leaf it visits.
@example(
    [("insert", x, 0) for x in range(61)] + [("patch", 30, 0)],
    True,
    True,
    [(0, 61, 5)],
)
def test_tree_matches_model(op_list, lazy, page_sharing, queries):
    # Leaves of ~1 KiB, so 61 small keys span several of them while the
    # 4 KiB root buffer keeps the late messages pending.
    env = fresh_env(
        node_size=1024,
        basement_size=256,
        lazy_apply_on_query=lazy,
        page_sharing=page_sharing,
    )
    model = _apply_ops(env, op_list)
    assert_kept_sizes_are_current(env)
    ordered = sorted(model)
    rows = env.range_query(META, b"", b"\xff" * 8)
    assert [k for k, _ in rows] == ordered  # each live key exactly once
    assert dict(rows) == model
    for x, y, limit in queries:
        lo, hi = sorted((x, y))
        klo, khi = b"key%02d" % lo, b"key%02d" % hi
        want = [(k, model[k]) for k in ordered if klo <= k < khi]
        assert env.range_query(META, klo, khi) == want
        assert env.range_query(META, klo, khi, limit=limit) == want[:limit]
    for k, v in model.items():
        assert env.get(META, k) == v


@settings(max_examples=25, deadline=None)
@given(op_strategy, query_strategy, st.booleans())
# Apply-on-query must not move the patch into the leaf ahead of the
# older range delete that stays buffered (it spans two leaves).
@example([("range_delete", 0, 60), ("patch", 1, 0)], [], True)
@example([("range_delete", 0, 60), ("patch", 1, 0)], [], False)
# A limit=1 scan whose candidate window is eaten by the range delete
# must not answer with the buffered insert that lies past the window.
@example([("range_delete", 0, 27)], [(0, 37, 1)], True)
def test_buffered_and_flushed_trees_agree(op_list, queries, lazy):
    """Differential: the same ops on a tree that never flushes (every
    message answered from a buffer: query fold and scan overlay, then
    moved by apply-on-query) and on one that flushes every message to
    its leaf (basement apply) give equal ``get`` and ``range_query``
    answers, before and after the queries' own side effects."""

    def grown(buffer_size):
        env = fresh_env(
            node_size=1024,
            basement_size=256,
            buffer_size=buffer_size,
            lazy_apply_on_query=lazy,
        )
        for x in range(61):  # several leaves under an internal root
            env.insert(META, b"key%02d" % x, b"seed")
        _apply_ops(env, op_list)
        return env

    buffered, flushed = grown(1 << 30), grown(0)
    root = flushed.meta._load_node(flushed.meta.root_id)
    assert isinstance(root, InternalNode) and not root.buffer
    assert buffered.meta.stats.flushes == 0
    for x, y, limit in [(0, 61, 3), *queries]:
        lo, hi = sorted((x, y))
        klo, khi = b"key%02d" % lo, b"key%02d" % hi
        for kwargs in ({}, {"limit": limit}):
            assert buffered.range_query(META, klo, khi, **kwargs) == (
                flushed.range_query(META, klo, khi, **kwargs)
            )
    for _ in range(2):  # the second pass sees what the first one moved
        for x in range(61):
            k = b"key%02d" % x
            assert buffered.get(META, k) == flushed.get(META, k)
    assert buffered.range_query(META, b"", b"\xff") == (
        flushed.range_query(META, b"", b"\xff")
    )


# ----------------------------------------------------------------------
# Kept sizes through the paths the property test does not reach: page
# values, partial leaf loads, a cold re-mount.
# ----------------------------------------------------------------------
def test_leaf_size_is_kept_through_partial_loads_and_a_remount():
    env = fresh_env(node_size=65536, basement_size=2048, buffer_size=8192)
    device = env.storage.device
    for i in range(400):
        env.insert(DATA, b"d%04d" % i, PageFrame(bytes([i % 251]) * 4096), by_ref=True)
        env.insert(META, b"m%04d" % i, b"x" * (i % 90))
        assert_kept_sizes_are_current(env)
    env.range_delete(DATA, b"d0100", b"d0150")
    assert_kept_sizes_are_current(env)
    stats = env.data.stats
    assert stats.leaf_splits and stats.root_splits

    def drop():
        env.checkpoint()
        for owner, node in list(env.cache.all_nodes()):
            owner.release_node_memory(node)
        env.cache.clear()

    drop()
    full = {
        n.node_id: n.nbytes()
        for n in (env.data._load_node(i) for i in env.data.blockman.table)
        if n.is_leaf
    }
    drop()
    assert env.get(DATA, b"d0300") is not None  # allow_partial: one basement
    assert stats.partial_leaf_loads == 1
    leaf = next(
        n for n, _o in env.cache._nodes.values()
        if n.is_leaf and not all(b.loaded for b in n.basements)
    )
    loaded = [b for b in leaf.basements if b.loaded]
    assert len(loaded) == 1 and leaf.nbytes() == loaded[0].nbytes < full[leaf.node_id]
    idx = next(i for i, b in enumerate(leaf.basements) if not b.loaded)
    env.data._load_basement(leaf, idx)
    assert leaf.nbytes() == loaded[0].nbytes + leaf.basements[idx].nbytes
    env.data._ensure_fully_loaded(leaf)
    assert leaf.nbytes() == full[leaf.node_id]
    assert_kept_sizes_are_current(env)

    env.checkpoint()
    env2 = reopen(device, cfg=env.config)
    for i in (0, 99, 150, 399):
        assert value_bytes(env2.get(DATA, b"d%04d" % i)) == bytes([i % 251]) * 4096
    assert env2.get(DATA, b"d0120") is None
    for tree in env2.trees:
        for node_id in tree.blockman.table:
            tree._load_node(node_id)
    assert any(n.is_leaf and n.nbytes() for n, _o in env2.cache._nodes.values())
    assert_kept_sizes_are_current(env2)


# ----------------------------------------------------------------------
# The point query's charges: the table holds the floats the expression
# yields, and the single-pass descent charges what the three helpers it
# replaced charged, in their order.
# ----------------------------------------------------------------------
def test_search_steps_is_the_expression_it_tabulates():
    assert len(SEARCH_STEPS) == 8193 and type(SEARCH_STEPS) is tuple
    for n in range(100_001):  # == on floats: bit-identical, past the table too
        assert search_steps(n) == 1 + math.log2(n + 1)
    # ... and the entries themselves: the descent indexes the tuple directly.
    assert all(SEARCH_STEPS[n] == 1 + math.log2(n + 1) for n in range(8193))


def _old_charge_pivot_search(tree, node):
    steps = 1 + math.log2(len(node.children) + 1)
    tree.clock.cpu(tree.costs.pivot_search_step * steps)


def _old_charge_buffer_probe(tree, node, matches):
    n_points = len(node.point_index)
    tree.clock.cpu(tree.costs.key_compare * (1 + math.log2(n_points + 1)))
    tree.clock.cpu(
        tree.costs.range_check
        * (1 + math.log2(len(node.range_msgs) + 1) + matches)
    )


def _old_get_impl(self, key, seq_hint):
    """``BeTree._get_impl`` as it stood before the single-pass descent
    (the oracle; lives here, not in ``src/``)."""
    self.stats.queries += 1
    self.clock.cpu(self.costs.query_overhead)
    path, pending = [], []
    bound_lo = bound_hi = None
    node = self._load_node(self.root_id)
    while isinstance(node, InternalNode):
        _old_charge_pivot_search(self, node)
        found = node.pending_for_key(key)
        _old_charge_buffer_probe(self, node, len(found))
        pending.extend(found)
        path.append(node)
        idx = node.child_index_for(key)
        child_id = node.children[idx]
        bound_lo, bound_hi = intersect(bound_lo, bound_hi, *node.child_range(idx))
        parent_of_leaf = (node, idx) if node.height == 1 else None
        node = self._load_node(child_id, for_key=key, allow_partial=not seq_hint)
        if seq_hint and self.cfg.tree_readahead and parent_of_leaf is not None:
            self._issue_leaf_readahead(parent_of_leaf[0], parent_of_leaf[1] + 1)
    leaf = node
    require(
        isinstance(leaf, LeafNode),
        "descent ended on a non-leaf node",
        TreeInvariantError,
        type(leaf).__name__,
    )
    basement = self._basement_for_query(leaf, key, seq_hint)
    present, base, base_msn = basement.get_with_msn(key)
    self.clock.cpu(self.costs.key_compare * (1 + math.log2(len(basement) + 1)))
    value = self._apply_pending((base, base_msn) if present else None, pending)
    if path:
        if not self.cfg.lazy_apply_on_query:
            self._apply_on_query_eager(path, leaf, basement, bound_lo, bound_hi)
        elif pending:
            self._apply_on_query_lazy(path, leaf, key)
    return value


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("seq_hint", [False, True])
def test_descent_charges_what_the_old_helpers_charged(monkeypatch, lazy, seq_hint):
    """Seeded differential over a mixed workload (buffered and flushed
    messages of every kind, cold partial and full reads, read-ahead):
    after every op both clocks and the cache counters are identical."""

    def grown():
        return fresh_env(
            node_size=16384,
            basement_size=1024,
            cache_bytes=48 * 1024,
            lazy_apply_on_query=lazy,
            tree_readahead=True,
        )

    new, old = grown(), grown()
    for tree in old.trees:
        monkeypatch.setattr(
            tree, "_get_impl", _old_get_impl.__get__(tree), raising=True
        )
    rng = random.Random(17)
    for step in range(2500):
        roll, k = rng.random(), b"k%04d" % rng.randrange(1500)
        if roll < 0.40:
            args = ("insert", META, k, bytes([step % 251]) * rng.randrange(4, 400))
        elif roll < 0.46:
            args = ("patch", META, k, rng.randrange(6), b"pp")
        elif roll < 0.52:
            args = ("delete", META, k)
        elif roll < 0.55:
            args = ("range_delete", META, k, k + b"\xff")
        elif roll < 0.99:
            args = ("get", META, k, seq_hint)
        else:
            args = ("checkpoint",)
        assert getattr(new, args[0])(*args[1:]) == getattr(old, args[0])(*args[1:])
        assert (new.clock.now, new.clock.cpu_time) == (old.clock.now, old.clock.cpu_time), (
            f"clocks diverged at step {step}: {args[:3]}"
        )
        assert (new.cache.hits, new.cache.misses) == (old.cache.hits, old.cache.misses)
    stats = new.meta.stats
    assert stats.queries > 900 and stats.node_reads > 50 and stats.root_splits
    assert stats.aoq_applied or stats.aoq_moved
    assert stats.partial_leaf_loads or seq_hint
    assert stats.readahead_issued or not seq_hint
    assert vars(new.meta.stats) == vars(old.meta.stats)


def test_warm_point_query_asks_each_level_once(monkeypatch):
    """Machine-independent cost of one warm get on a 4-level tree: one
    ``NodeCache.get`` per level, no ``math.log2`` (counts, not timings)."""
    env = fresh_env(
        node_size=1024,
        basement_size=256,
        buffer_size=512,
        cache_bytes=8 << 20,
        lazy_apply_on_query=True,  # BetrFS v0.6; the eager policy has its own
    )
    tree = env.meta
    for i in range(1500):
        env.insert(META, b"key%05d" % i, b"v" * 40)
        if tree._load_node(tree.root_id).height == 3:  # 4 levels with the leaf
            break
    else:
        pytest.fail("workload too small for a 4-level tree")
    assert env.get(META, b"key00007") == b"v" * 40  # warm
    gets, logs = [], []
    real_get = NodeCache.get
    monkeypatch.setattr(
        NodeCache, "get", lambda self, node_id: gets.append(node_id) or real_get(self, node_id)
    )
    monkeypatch.setattr(
        "repro.core.tree.math",
        type("math", (), {"log2": staticmethod(lambda x: logs.append(x) or math.log2(x))}),
    )
    misses = env.cache.misses
    assert env.get(META, b"key00007") == b"v" * 40
    assert len(gets) == 4 and gets[0] == tree.root_id
    assert logs == [] and env.cache.misses == misses
