"""Functional and property tests for the B-epsilon-tree."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.errors import TreeInvariantError, require
from repro.check.fsck import fsck_device
from repro.core.cache import NodeCache
from repro.core.env import DATA, META
from repro.core.keys import intersect
from repro.core.messages import Insert, PageFrame, value_bytes
from repro.core.node import BasementNode, InternalNode, LeafNode
from repro.core.serialize import ChecksumError, decode_leaf_header
from repro.core.tree import LEAF_HEAD_READ, SEARCH_STEPS, search_steps
from tests.conftest import LAYOUT, build_env, drop_node_cache, recounted_node_bytes, reopen

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

    drop_node_cache(env)
    full = {
        n.node_id: n.nbytes()
        for n in (env.data._load_node(i) for i in env.data.blockman.table)
        if n.is_leaf
    }
    drop_node_cache(env)
    assert env.get(DATA, b"d0300") is not None  # allow_partial: one basement
    assert stats.partial_leaf_loads == 1
    leaf = next(
        n for n, _o in env.cache._nodes.values()
        if n.is_leaf and not all(b.loaded for b in n.basements)
    )
    loaded = [b for b in leaf.basements if b.loaded]
    assert len(loaded) == 1 and leaf.nbytes() == loaded[0].nbytes < full[leaf.node_id]
    idx = next(i for i, b in enumerate(leaf.basements) if not b.loaded)
    env.data._load_basements(leaf, idx, idx + 1)
    assert leaf.nbytes() == loaded[0].nbytes + leaf.basements[idx].nbytes
    env.data._ensure_loaded(leaf)
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


def _old_get_impl(self, key):
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
        node = self._load_node(child_id, _one_key(key) if node.height == 1 else None)
    leaf = node
    require(
        isinstance(leaf, LeafNode),
        "descent ended on a non-leaf node",
        TreeInvariantError,
        type(leaf).__name__,
    )
    basement = self._basement_for_query(leaf, key)
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
    messages of every kind, cold partial and full reads; with
    ``seq_hint``, every other read a hinted one-key scan, which reads
    leaves whole and prefetches): after every op both clocks and the
    cache counters are identical."""

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
        elif roll < 0.99 and seq_hint and step % 2:
            args = ("range_query", META, k, k + b"\x00", None, True)
        elif roll < 0.99:
            args = ("get", META, k)
        else:
            args = ("checkpoint",)
        assert getattr(new, args[0])(*args[1:]) == getattr(old, args[0])(*args[1:])
        assert (new.clock.now, new.clock.cpu_time) == (old.clock.now, old.clock.cpu_time), (
            f"clocks diverged at step {step}: {args[:3]}"
        )
        assert (new.cache.hits, new.cache.misses) == (old.cache.hits, old.cache.misses)
    stats = new.meta.stats
    assert stats.queries + stats.range_queries > 900
    assert stats.node_reads > 50 and stats.root_splits
    assert stats.aoq_applied or stats.aoq_moved
    assert stats.partial_leaf_loads
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


# ----------------------------------------------------------------------
# Basement-granular reads (§2.2): an unhinted point query that misses a
# leaf reads its header region and one basement — at every geometry
# ``scaled`` produces — verified and charged as a whole read is; scans
# covering the leaf, hinted scans and flushes read it whole.
# ----------------------------------------------------------------------
def _leaf_header(tree, node_id):
    """The header of an on-disk leaf, read behind the simulation's back."""
    off, ln = tree.blockman.lookup(node_id)
    store, layout = tree.storage.device.store, tree.storage.layout
    return decode_leaf_header(store.read(layout.file_base(tree.file_name) + off, ln), ln)


def _one_key(key):
    """The key span a point query asks a leaf for."""
    return key, key + b"\x00"


def _count_reads(monkeypatch, env):
    """Every node read (``storage.read_segments``) of ``env`` from here
    on, as (offset, length)."""
    reads = []
    real = env.storage.read_segments
    monkeypatch.setattr(
        env.storage,
        "read_segments",
        lambda name, off, ln: reads.append((off, ln)) or real(name, off, ln),
    )
    return reads


@pytest.mark.parametrize("page_sharing", [False, True])
@pytest.mark.parametrize("factor", [1, 1 / 4, 1 / 16, 1 / 64])
def test_a_cold_point_query_reads_one_basement_at_every_scale(factor, page_sharing):
    """A cold point query reads the header and one basement; a cold
    ``range_query`` the header and one run of the basements its range
    overlaps — one, two, or, covering the leaf's whole pivot range, the
    leaf whole in one I/O.  Hinted scans and compressed reads read whole."""
    cfg = BeTreeConfig(page_sharing=page_sharing).scaled(factor)
    cfg.cache_bytes = 64 << 20
    device = BlockDevice(SimClock(), NULL_DEVICE)
    env = build_env(device, cfg)
    tree, stats = env.data, env.data.stats
    order = list(range(5 * cfg.node_size // 2 // 4096))
    random.Random(3).shuffle(order)  # leaves at every fill, not half-full ones
    for i in order:
        env.insert(DATA, b"blk%06d" % i, PageFrame(bytes([i % 251]) * 4096), by_ref=True)
    drop_node_cache(env)
    root = tree._load_node(tree.root_id)
    assert root.height == 1
    # A leaf worth reading in part with a finite pivot range (not the
    # last child), and a key of its last basement.
    for idx, leaf_id in enumerate(root.children[:-1]):
        ln = tree.blockman.lookup(leaf_id)[1]
        header = _leaf_header(tree, leaf_id)
        if ln > LEAF_HEAD_READ + cfg.basement_size and len(header.basement_extents) > 1:
            break
    else:
        pytest.fail("no multi-basement leaf at this geometry")
    rows, first_keys = header.basement_extents, header.basement_first_keys
    key = first_keys[-1]
    child_lo, child_hi = root.child_range(idx)
    other = next(
        k for k in (b"blk%06d" % i for i in order)
        if root.children[root.child_index_for(k)] != leaf_id
    )

    def cold(read):
        """What ``read`` asks of the tree file and the device with only
        the root and another leaf cached: bytes, device commands,
        partial loads, the basements it left loaded."""
        drop_node_cache(env)
        env.get(DATA, other)
        before = (
            stats.bytes_node_read, stats.partial_leaf_loads, stats.node_reads,
            device.stats.bytes_read, device.stats.reads,
        )
        read()
        asked = stats.bytes_node_read - before[0]
        commands = device.stats.reads - before[4]
        assert stats.node_reads == before[2] + 1
        assert stats.bytes_node_read == env.storage.file_bytes_read[tree.file_name]
        # ... and the device's count, up to a sector per command.
        slack = device.stats.bytes_read - before[3] - asked
        assert 0 <= slack < device.profile.sector * commands
        leaf = tree.cache.get(leaf_id)
        loaded = [b.loaded for b in leaf.basements]
        return asked, commands, stats.partial_leaf_loads - before[1], loaded

    def page(k):
        return bytes([int(k[3:]) % 251]) * 4096

    def point_query():
        assert value_bytes(env.get(DATA, key)) == page(key)

    def scan(lo, hi):
        def read():
            got = env.range_query(DATA, lo, hi)
            assert [(k, value_bytes(v)) for k, v in got] == sorted(
                (k, page(k)) for k in (b"blk%06d" % i for i in order) if lo <= k < hi
            )
        return read

    def run(first, last):
        """Bytes of the on-disk run of basements ``first`` .. ``last``."""
        return rows[last][0] + rows[last][1] - rows[first][0]

    n = len(rows)
    last_only = [False] * (n - 1) + [True]
    assert cold(point_query) == (LEAF_HEAD_READ + run(n - 1, n - 1), 2, 1, last_only)
    assert LEAF_HEAD_READ + rows[-1][1] < ln
    # Inside one basement, spanning two, covering the leaf.
    assert cold(scan(key, child_hi)) == (LEAF_HEAD_READ + run(n - 1, n - 1), 2, 1, last_only)
    two = [False] * (n - 2) + [True, True]
    assert cold(scan(first_keys[-2] + b"\x00", child_hi)) == (
        LEAF_HEAD_READ + run(n - 2, n - 1), 2, 1, two
    )
    for whole_read in (
        lambda: env.range_query(DATA, key, key + b"\x00", seq_hint=True),
        scan(child_lo or b"", child_hi),
    ):
        assert cold(whole_read) == (ln, 1, 0, [True] * n)
    # Compressed, the extent is one stream: read whole.
    cfg.compression = True
    tree.write_node(tree._load_node(leaf_id))
    ln = tree.blockman.lookup(leaf_id)[1]
    assert cold(point_query) == (ln, 1, 0, [True] * n)
    assert cold(scan(key, child_hi)) == (ln, 1, 0, [True] * n)


def _hand_built_leaf(env, n_basements, value):
    """A leaf of ``n_basements`` two-pair basements, written to an
    extent of ``env.data`` but not cached."""
    basements = []
    for b in range(n_basements):
        basement = BasementNode()
        for j in range(2):
            basement.set(b"k%04d.%d" % (b, j), value, msn=1)
        basements.append(basement)
    leaf = LeafNode(env.new_node_id(), basements)
    env.data.write_node(leaf)
    return leaf


def test_completing_a_leaf_reads_each_run_of_unloaded_basements_once(monkeypatch):
    env = fresh_env()
    tree, stats = env.data, env.data.stats
    leaf = _hand_built_leaf(env, 4, b"v" * 3000)
    off, ln = tree.blockman.lookup(leaf.node_id)
    reads = _count_reads(monkeypatch, env)
    partial = tree._load_leaf_partial(leaf.node_id, off, ln, *_one_key(b"k0001.1"))
    rows = _leaf_header(tree, leaf.node_id).basement_extents
    assert [b.loaded for b in partial.basements] == [False, True, False, False]
    assert reads == [(off, LEAF_HEAD_READ), (off + rows[1][0], rows[1][1])]
    del reads[:]
    tree._ensure_loaded(partial)
    assert reads == [
        (off + rows[0][0], rows[0][1]),
        (off + rows[2][0], rows[2][1] + rows[3][1]),  # two basements, one read
    ]
    assert stats.basement_loads == 4 and leaf.node_id not in tree._partial_meta
    assert stats.bytes_node_read == LEAF_HEAD_READ + ln - rows[0][0]
    assert [list(b.items()) for b in partial.basements] == [list(b.items()) for b in leaf.basements]
    assert partial.nbytes() == leaf.nbytes()
    tree._ensure_loaded(partial)  # nothing left: no I/O
    assert len(reads) == 2


@pytest.mark.parametrize("page_sharing", [False, True])
def test_a_header_longer_than_the_head_read_costs_its_tail_only(monkeypatch, page_sharing):
    env = fresh_env(page_sharing=page_sharing)
    tree, stats = env.data, env.data.stats
    leaf = _hand_built_leaf(env, 600, b"v")
    off, ln = tree.blockman.lookup(leaf.node_id)
    header = _leaf_header(tree, leaf.node_id)
    assert header.header_len > LEAF_HEAD_READ
    reads = _count_reads(monkeypatch, env)
    cpu = []
    monkeypatch.setattr(tree.costs, "checksum", lambda n: cpu.append(n) or 0.0)
    partial = tree._load_leaf_partial(leaf.node_id, off, ln, *_one_key(b"k0300.0"))
    row = header.basement_extents[300]
    assert reads == [
        (off, LEAF_HEAD_READ),
        (off + LEAF_HEAD_READ, header.header_len - LEAF_HEAD_READ),
        (off + row[0], row[1]),
    ]
    # Each byte read once, each byte decoded checksummed once.
    assert stats.bytes_node_read == header.header_len + row[1]
    assert cpu == [header.header_len, row[1]]
    assert list(partial.basements[300].items()) == list(leaf.basements[300].items())


@pytest.mark.parametrize("page_sharing", [False, True])
def test_partial_loads_charge_what_the_whole_read_charges(monkeypatch, page_sharing):
    """Header + every basement, loaded piecemeal, cost the CPU of one
    whole decode (checksum, deserialize, memcpy unless pages are
    shared) and one buffer per read."""
    env = fresh_env(page_sharing=page_sharing)
    tree = env.data
    leaf = LeafNode(env.new_node_id())
    for i in range(40):
        value = PageFrame(bytes([i]) * 4096) if i % 3 else b"s" * (i * 20)
        leaf.apply(Insert(b"/f/%04d" % i, value, msn=i + 1), 16384)
    tree.write_node(leaf)
    off, ln = tree.blockman.lookup(leaf.node_id)
    charged = {"checksum": 0, "serialize": 0, "memcpy": 0}
    for name in charged:
        monkeypatch.setattr(
            tree.costs, name, lambda n, name=name: charged.__setitem__(name, charged[name] + n) or 0.0
        )
    buffers = env.alloc.stats.frees  # each read's buffer is freed after its decode
    tree._decode_full(env.storage.read_segments(tree.file_name, off, ln))
    whole, charged = dict(charged), dict.fromkeys(charged, 0)
    assert env.alloc.stats.frees == buffers + 1
    assert whole["checksum"] == ln and bool(whole["memcpy"]) == (not page_sharing)
    partial = tree._load_leaf_partial(leaf.node_id, off, ln, *_one_key(b"/f/0020"))
    for idx in reversed(range(len(partial.basements))):  # one by one: no runs
        if not partial.basements[idx].loaded:
            tree._load_basements(partial, idx, idx + 1)
    assert charged == whole and len(partial.basements) > 3
    assert env.alloc.stats.frees == buffers + 2 + len(partial.basements)


def _paged_leaf(env, n_basements):
    """A leaf of one-page values, written to an extent of ``env.data``
    but not cached; returns it and its pages' bytes, in key order."""
    basements, pages = [], []
    for b in range(n_basements):
        basement = BasementNode()
        for j in range(2):
            pages.append(bytes([2 * b + j + 1]) * 4096)
            basement.set(b"k%04d.%d" % (b, j), PageFrame(pages[-1]), msn=1)
        basements.append(basement)
    leaf = LeafNode(env.new_node_id(), basements)
    env.data.write_node(leaf)
    return leaf, pages


def _stored_segments(tree, node_id):
    """The segments the device store holds for a node's extent."""
    off, _ln = tree.blockman.lookup(node_id)
    base = LAYOUT.file_base(tree.file_name) + off
    (segments,) = [segs for at, segs in tree.storage.device.store.snapshot() if at == base]
    return segments


def test_a_node_write_hands_the_device_each_page_by_reference():
    env = fresh_env(page_sharing=True)
    leaf, pages = _paged_leaf(env, 4)
    stored = {id(seg) for seg in _stored_segments(env.data, leaf.node_id)}
    assert all(id(page) in stored for page in pages)


@pytest.mark.parametrize("path", ["whole", "basement", "readahead"])
def test_a_cold_read_decodes_each_page_as_the_stored_segment(path):
    """Whichever way a leaf comes back — read whole, a basement at a
    time, or from a read-ahead completion — each page value is the very
    ``bytes`` the device store holds, not a copy of it."""
    env = fresh_env(page_sharing=True)
    tree, stats = env.data, env.data.stats
    leaf, pages = _paged_leaf(env, 4)
    off, ln = tree.blockman.lookup(leaf.node_id)
    if path == "whole":
        node = tree._read_node(leaf.node_id, None)
    elif path == "basement":
        node = tree._load_leaf_partial(leaf.node_id, off, ln, *_one_key(b"k0002.0"))
        tree._ensure_loaded(node)
        assert stats.basement_loads == 4
    else:
        tree._prefetched[leaf.node_id] = tree.storage.prefetch(tree.file_name, off, ln)
        node = tree._read_node(leaf.node_id, None)
        assert stats.readahead_hits == 1
    values = [value.data for basement in node.basements for value in basement.values]
    assert values == pages
    stored = {id(seg) for seg in _stored_segments(tree, leaf.node_id)}
    assert all(id(value) in stored for value in values)


def test_a_corrupt_leaf_is_a_checksum_error_on_both_read_paths():
    env = fresh_env()
    tree = env.data
    leaf = _hand_built_leaf(env, 4, b"v" * 3000)
    off, ln = tree.blockman.lookup(leaf.node_id)
    base = LAYOUT.data_base + off
    store = env.storage.device.store
    good = store.read(base, ln)
    rows = decode_leaf_header(good, ln).basement_extents

    def both_paths_raise(match):
        with pytest.raises(ChecksumError, match=match):
            tree._load_leaf_partial(leaf.node_id, off, ln, *_one_key(b"k0001.0"))
        with pytest.raises(ChecksumError, match=match):
            tree._decode_full(env.storage.read_segments(tree.file_name, off, ln))

    for at in (0, 5, 22, 27, 40, rows[0][0] - 1):  # magic, id, length, table, CRC
        store.write(base + at, bytes([good[at] ^ 0x10]))
        both_paths_raise("leaf|node checksum")  # a bad magic reads as an internal node
        store.write(base + at, good[at : at + 1])
    # A block table that names another length: the verified header
    # does not tile it.
    tree.blockman.table[leaf.node_id] = (off, ln - 512)
    ln -= 512
    both_paths_raise("tile")
    tree.blockman.table[leaf.node_id] = (off, ln + 512)
    ln += 512
    # A sibling basement's damage is met when that basement is.
    store.write(base + rows[2][0] + 7, b"\xff")
    partial = tree._load_leaf_partial(leaf.node_id, off, ln, *_one_key(b"k0001.0"))
    assert partial.basements[1].loaded
    with pytest.raises(ChecksumError, match="basement 2 "):
        tree._ensure_loaded(partial)
    with pytest.raises(ChecksumError, match="basement 2 "):
        tree._decode_full(env.storage.read_segments(tree.file_name, off, ln))


@pytest.mark.parametrize("page_sharing", [False, True])
def test_partial_and_whole_leaf_reads_agree(monkeypatch, page_sharing):
    """Seeded differential: one op script on a tree that reads leaves
    by the basement and on one made to read every leaf whole — all five
    message kinds; flushes, range deletes and a split landing on
    partially loaded leaves, a flush completing a leaf a scan read in
    part; scans (``limit=`` cursors and ``empty_range`` too) overlaying
    buffered messages of every kind on partially loaded leaves;
    checkpoints, cold drops and a re-open; sanitizers on.  Every
    ``get``, ``range_query`` and ``empty_range`` answers the same."""

    def grown():
        env = fresh_env(
            node_size=32768,
            basement_size=2048,
            buffer_size=8192,
            cache_bytes=96 * 1024,
            lazy_apply_on_query=True,
            page_sharing=page_sharing,
            sanitize=True,
        )
        return env, env.storage.device

    (partial, p_device), (whole, w_device) = grown(), grown()
    for tree in whole.trees:
        monkeypatch.setattr(
            tree, "_read_node", lambda node_id, _span, real=tree._read_node: real(node_id, None)
        )
    tree = partial.data
    met = set()  # what landed on a partially loaded leaf
    overlaid = set()  # message kinds a scan overlaid on one
    scanned = set()  # leaves a scan read in part
    real_apply, real_scan_leaf = tree._apply_to_leaf, tree._scan_leaf
    real_partial = tree._load_leaf_partial

    def apply_spy(leaf, msgs, parent):
        stubs = not all(b.loaded for b in leaf.basements)
        splits = tree.stats.leaf_splits
        real_apply(leaf, msgs, parent)
        if stubs:
            met.add("flush")
            if leaf.node_id in scanned:
                met.add("flush after a scan")
            if any(m.is_range for m in msgs):
                met.add("range delete")
            if tree.stats.leaf_splits > splits:
                met.add("split")

    def scan_leaf_spy(leaf, start, end, pending, results, limit):
        if not all(b.loaded for b in leaf.basements):
            overlaid.update(type(m).__name__ for m in pending)
        real_scan_leaf(leaf, start, end, pending, results, limit)

    def partial_spy(node_id, off, ln, lo, hi):
        if hi != lo + b"\x00":
            scanned.add(node_id)
        return real_partial(node_id, off, ln, lo, hi)

    monkeypatch.setattr(tree, "_apply_to_leaf", apply_spy)
    monkeypatch.setattr(tree, "_scan_leaf", scan_leaf_spy)
    monkeypatch.setattr(tree, "_load_leaf_partial", partial_spy)
    for env in (partial, whole):
        env.empty_range = lambda _tree, lo, hi, env=env: env.data.empty_range(lo, hi)

    def plain(answer):
        if isinstance(answer, list):
            return [(k, value_bytes(v)) for k, v in answer]
        return None if answer is None else value_bytes(answer)

    rng = random.Random(20)
    for step in range(4000):
        roll, n = rng.random(), rng.randrange(1200)
        k = b"k%04d" % n
        if roll < 0.30:
            args = ("insert", DATA, k, bytes([step % 251]) * rng.randrange(4, 700))
        elif roll < 0.38:
            args = ("insert", DATA, k, PageFrame(bytes([step % 251]) * 4096), True)
        elif roll < 0.44:
            args = ("patch", DATA, k, rng.randrange(40), b"pp")
        elif roll < 0.50:
            args = ("delete", DATA, k)
        elif roll < 0.53:
            args = ("range_delete", DATA, k, b"k%04d" % (n + rng.randrange(1, 12)))
        elif roll < 0.88:
            args = ("get", DATA, k)
        elif roll < 0.92:
            args = ("range_query", DATA, k, b"k%04d" % (n + 40))
        elif roll < 0.95:
            args = ("range_query", DATA, k, b"k%04d" % (n + 300), rng.choice([1, 3, 10]))
        elif roll < 0.97:
            args = ("empty_range", DATA, k, b"k%04d" % (n + rng.randrange(1, 6)))
        elif roll < 0.99:
            args = ("checkpoint",)
        else:
            drop_node_cache(partial)
            drop_node_cache(whole)
            continue
        if args[0] == "insert" and len(args) == 5:  # a frame per tree: by-ref shares it
            got = partial.insert(*args[1:])
            want = whole.insert(DATA, k, PageFrame(args[3].data), True)
        else:
            got, want = (getattr(env, args[0])(*args[1:]) for env in (partial, whole))
        assert plain(got) == plain(want), f"answers diverged at step {step}: {args[:3]}"
    stats = tree.stats
    assert met == {"flush", "flush after a scan", "range delete", "split"}
    assert overlaid == {"Insert", "InsertByRef", "Patch", "Delete", "RangeDelete"}
    assert stats.partial_leaf_loads > 50 and whole.data.stats.partial_leaf_loads == 0
    assert stats.basement_loads > stats.partial_leaf_loads  # siblings fetched later
    assert stats.bytes_node_read < whole.data.stats.bytes_node_read
    for env in (partial, whole):
        assert env.data.stats.bytes_node_read == env.storage.file_bytes_read[tree.file_name]
    # Cold, from the device image, after an offline check of every CRC.
    reopened = []
    for env, device in ((partial, p_device), (whole, w_device)):
        env.checkpoint()
        fsck_device(
            device.crash_image(), LAYOUT.log_size, LAYOUT.meta_size, aligned=page_sharing
        ).raise_if_errors()
        reopened.append(reopen(device, cfg=env.config, fsck=False))
    cold_partial, cold_whole = reopened
    for n in range(1200):
        k = b"k%04d" % n
        assert plain(cold_partial.get(DATA, k)) == plain(cold_whole.get(DATA, k))
    assert plain(cold_partial.range_query(DATA, b"", b"\xff")) == plain(
        cold_whole.range_query(DATA, b"", b"\xff")
    )
    assert cold_partial.data.stats.partial_leaf_loads
