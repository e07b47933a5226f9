"""Tests for the node cache, page cache and dentry cache."""

import random
import signal
from collections import OrderedDict

import pytest

from repro.core.cache import NodeCache
from repro.core.config import BeTreeConfig
from repro.core.env import DATA, META
from repro.core.messages import Insert, PageFrame
from repro.core.node import InternalNode, LeafNode
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.harness.mt import device_sha256
from repro.model.costs import CostModel
from repro.model.profiles import COMMODITY_SSD
from repro.vfs.dcache import DentryCache
from repro.vfs.inode import FileKind, Stat, VInode
from repro.vfs.pagecache import PAGE_SIZE, PageCache
from tests.conftest import build_env, drop_node_cache, recounted_node_bytes


def leaf_with(node_id, nbytes):
    leaf = LeafNode(node_id)
    leaf.apply(Insert(b"k%d" % node_id, b"x" * nbytes, msn=node_id), 1 << 20)
    return leaf


class TestNodeCache:
    def test_hit_miss_counters(self):
        cache = NodeCache(1 << 20)
        cache.put(leaf_with(1, 10), owner=None)
        assert cache.get(1) is not None
        assert cache.get(2) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_prefers_leaves(self):
        cache = NodeCache(600)
        owner = object()
        internal = InternalNode(1, 1, [], [2])
        cache.put(internal, owner)
        cache.put(leaf_with(2, 300), owner)
        cache.put(leaf_with(3, 300), owner)
        written = []
        cache.evict_to_fit(lambda o, n: written.append(n.node_id))
        # The internal node survives; a leaf went.
        assert cache.get(1) is not None

    def test_pinned_nodes_survive(self):
        cache = NodeCache(100)
        owner = object()
        cache.put(leaf_with(1, 400), owner)
        cache.pin(1)
        cache.evict_to_fit(lambda o, n: None)
        assert cache.get(1) is not None
        cache.unpin(1)
        cache.evict_to_fit(lambda o, n: None)
        assert cache.get(1) is None

    def test_dirty_victims_are_written(self):
        cache = NodeCache(100)
        owner = object()
        leaf = leaf_with(1, 400)
        leaf.dirty = True
        cache.put(leaf, owner)
        written = []
        cache.evict_to_fit(lambda o, n: written.append((o, n.node_id)))
        assert written == [(owner, 1)]

    def test_dirty_nodes_iteration(self):
        cache = NodeCache(1 << 20)
        a, b = leaf_with(1, 10), leaf_with(2, 10)
        b.dirty = False
        cache.put(a, "o1")
        cache.put(b, "o2")
        assert [(o, n.node_id) for o, n in cache.dirty_nodes()] == [("o1", 1)]


def memory_used(cache):
    """Cached bytes recomputed from scratch: the oracle the ledger
    (``_used``) is checked against, not what eviction reads."""
    return sum(node.nbytes() for node, _ in cache._nodes.values())


class ReferenceCache(NodeCache):
    """``evict_to_fit`` as it was before the cache kept books: re-sum
    every node, rebuild both id lists, walk leaves then internals."""

    def evict_to_fit(self, writer, on_evict=None):
        if not self._nodes:
            return
        used = memory_used(self)
        if used <= self.budget:
            return
        leaf_ids = [nid for nid, (n, _o) in self._nodes.items() if n.is_leaf]
        internal_ids = [nid for nid, (n, _o) in self._nodes.items() if not n.is_leaf]
        for node_id in leaf_ids + internal_ids:
            if used <= self.budget:
                break
            if self.pinned(node_id):
                continue
            node, owner = self._nodes[node_id]
            if node.dirty:
                writer(owner, node)
                self.dirty_evictions += 1
            used -= node.nbytes()
            self.remove(node_id)
            self.evictions += 1
            if on_evict is not None:
                on_evict(owner, node)


def recorded_bytes(cache):
    return sum(cache._leaves.values()) + sum(cache._internals.values())


def recounted_bytes(cache):
    return sum(recounted_node_bytes(node) for node, _owner in cache._nodes.values())


def spy_on_fits(cache, log):
    """Record every victim as ``(node_id, was_dirty)`` and, after each
    fit of the real cache, hold its ledger to the from-scratch recount."""
    fit = cache.evict_to_fit

    def spied(writer, on_evict):
        written = set()

        def write(owner, node):
            written.add(node.node_id)
            writer(owner, node)

        def evict(owner, node):
            log.append((node.node_id, node.node_id in written))
            on_evict(owner, node)

        fit(write, evict)
        if type(cache) is NodeCache:
            assert cache._used == memory_used(cache) == recorded_bytes(cache)
            assert cache._used == recounted_bytes(cache)
            assert not cache._touched

    cache.evict_to_fit = spied


class TestNodeCacheLedger:
    def envs(self, monkeypatch, sanitize):
        cfg = BeTreeConfig()
        cfg.node_size = 16384
        cfg.basement_size = 1024
        cfg.buffer_size = 4096
        cfg.fanout = 4
        cfg.cache_bytes = 96 * 1024
        cfg.sanitize = sanitize
        out = []
        for cache_cls in (NodeCache, ReferenceCache):
            monkeypatch.setattr("repro.core.env.NodeCache", cache_cls)
            device = BlockDevice(SimClock(), COMMODITY_SSD)
            env = build_env(device, cfg)
            assert type(env.cache) is cache_cls
            log = []
            spy_on_fits(env.cache, log)
            out.append((env, device, log))
        return out

    @pytest.mark.parametrize("seed,sanitize", [(1, False), (2, False), (3, True)])
    def test_ledger_and_victims_match_the_rescanning_reference(
        self, monkeypatch, seed, sanitize
    ):
        """Every tree mutation kind, partial loads, checkpoints and
        direct remove/clear: same victims in the same order, ledger
        exact after every op."""
        (env, device, log), (ref, ref_device, ref_log) = self.envs(
            monkeypatch, sanitize
        )
        rng = random.Random(seed)

        def key():
            return b"k%05d" % rng.randrange(4000)

        for step in range(3000):
            roll = rng.random()
            tree = rng.choice((META, DATA))
            if roll < 0.55:
                args = ("insert", tree, key(), bytes([step % 251]) * rng.randrange(8, 700))
            elif roll < 0.65:
                args = ("patch", tree, key(), rng.randrange(8), b"pp")
            elif roll < 0.72:
                args = ("delete", tree, key())
            elif roll < 0.76:
                lo = key()
                args = ("range_delete", tree, lo, lo + b"\xff" * rng.randrange(1, 3))
            elif roll < 0.92:
                args = ("get", tree, key())
            elif roll < 0.97:
                lo = key()
                args = ("range_query", tree, lo, lo[:4] + b"\xff")
            elif roll < 0.985:
                args = ("checkpoint",)
            elif roll < 0.995:
                args = ("remove",)
            else:
                args = ("drop",)
            if args[0] == "drop":
                drop_node_cache(env)
                drop_node_cache(ref)
                assert env.cache._used == 0 and not env.cache._leaves
            elif args[0] == "remove":
                # Only a clean, on-disk node can be forgotten safely.
                env.checkpoint()
                ref.checkpoint()
                victim = rng.choice(sorted(env.cache._nodes) or [0])
                env.cache.remove(victim)
                ref.cache.remove(victim)
                env.cache.remove(victim)  # absent: a no-op
                assert env.cache._used == recorded_bytes(env.cache)
            else:
                got = getattr(env, args[0])(*args[1:])
                assert got == getattr(ref, args[0])(*args[1:])
            assert log == ref_log, f"victims diverged at step {step}: {args}"
            assert list(env.cache._nodes) == list(ref.cache._nodes)
        stats = env.data.stats
        assert len(log) > 100 and any(dirty for _n, dirty in log)
        assert any(env.cache._internals) and stats.leaf_splits and stats.root_splits
        assert stats.partial_leaf_loads
        assert env.clock.now == ref.clock.now
        assert device_sha256(device) == device_sha256(ref_device)

    def test_a_fit_measures_only_the_nodes_handed_out(self, monkeypatch):
        """The cost of a fit follows the work since the last one, not
        the size of the cache (a machine-independent guard: a count, not a timing)."""
        cache = NodeCache(1 << 30)
        for node_id in range(1, 201):
            cache.put(leaf_with(node_id, 100), owner=None)
        cache.evict_to_fit(lambda o, n: None)
        calls = []
        real = LeafNode.nbytes
        monkeypatch.setattr(
            LeafNode, "nbytes", lambda self: calls.append(self.node_id) or real(self)
        )
        cache.evict_to_fit(lambda o, n: None)
        assert calls == []
        cache.get(77)
        cache.evict_to_fit(lambda o, n: None)
        assert calls == [77]

    def test_a_fit_rewrites_the_ledger_only_where_a_size_moved(self):
        """Most handed-out nodes were only read: their ledger entry is
        compared, not rewritten."""

        class Ledger(OrderedDict):
            writes = []

            def __setitem__(self, node_id, size):
                self.writes.append(node_id)
                super().__setitem__(node_id, size)

        cache = NodeCache(1 << 30)
        leaves = {node_id: leaf_with(node_id, 100) for node_id in range(1, 21)}
        for leaf in leaves.values():
            cache.put(leaf, owner=None)
        cache.evict_to_fit(lambda o, n: None)
        cache._leaves = Ledger(cache._leaves)
        Ledger.writes.clear()
        for node_id in leaves:
            cache.get(node_id)
        leaves[7].apply(Insert(b"more", b"y" * 50, msn=99), 1 << 20)
        cache.evict_to_fit(lambda o, n: None)
        assert Ledger.writes == [7]
        assert cache._used == memory_used(cache) == recounted_bytes(cache)

    def test_put_replacing_a_leaf_by_an_internal_node_moves_lists(self):
        cache = NodeCache(1 << 20)
        cache.put(leaf_with(1, 50), owner=None)
        cache.evict_to_fit(lambda o, n: None)
        cache.put(InternalNode(1, height=1), owner=None)
        cache.evict_to_fit(lambda o, n: None)
        assert list(cache._internals) == [1] and not cache._leaves
        assert cache._used == memory_used(cache)


class TestPageCache:
    def make(self):
        return PageCache(SimClock(), CostModel(), 16 * PAGE_SIZE, 4 * PAGE_SIZE)

    def test_write_then_lookup(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"hello")
        page = pc.lookup("/f", 0)
        assert page.dirty
        assert page.frame.data[:5] == b"hello"
        assert pc.dirty_bytes == PAGE_SIZE

    def test_mark_clean(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"x")
        pc.mark_clean("/f", 0, shared=True)
        assert pc.dirty_bytes == 0
        assert pc.lookup("/f", 0).writeback_shared

    def test_cow_on_shared_frame(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"v1")
        page = pc.lookup("/f", 0)
        page.frame.get()  # the "tree" takes a reference
        pc.mark_clean("/f", 0, shared=True)
        old = page.frame
        pc.write("/f", 0, 0, b"v2")
        assert pc.lookup("/f", 0).frame is not old
        assert pc.cow_copies == 1
        assert old.data[:2] == b"v1"  # history preserved for the tree

    def test_cow_elided_when_tree_released(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"v1")
        pc.mark_clean("/f", 0, shared=True)  # shared but refs == 1
        old = pc.lookup("/f", 0).frame
        pc.write("/f", 0, 0, b"v2")
        assert pc.lookup("/f", 0).frame is old
        assert pc.cow_elided == 1

    def test_drop_file(self):
        pc = self.make()
        pc.write("/f", 0, 0, b"a")
        pc.write("/g", 0, 0, b"b")
        pc.drop_file("/f")
        assert pc.lookup("/f", 0) is None
        assert pc.lookup("/g", 0) is not None
        assert pc.dirty_bytes == PAGE_SIZE

    def test_eviction_returns_dirty_for_writeback(self):
        pc = self.make()
        for i in range(20):
            pc.write("/f", i, 0, b"d")
        need = pc.evict_to_fit()
        assert need  # dirty pages cannot be silently dropped
        for p, i, page in need:
            pc.mark_clean(p, i, shared=False)
        pc.evict_to_fit()
        assert pc.cached_bytes() <= pc.budget


class TestDentryCache:
    def test_positive_negative(self):
        dc = DentryCache()
        dc.insert(VInode("/a", Stat()))
        dc.insert_negative("/missing")
        assert dc.get("/a") is not None
        assert dc.contains("/missing") and dc.get("/missing") is None
        assert dc.negative_hits == 1

    def test_invalidate_tree(self):
        dc = DentryCache()
        for p in ("/d", "/d/x", "/d/x/y", "/dz"):
            dc.insert(VInode(p, Stat()))
        dc.invalidate_tree("/d")
        assert not dc.contains("/d")
        assert not dc.contains("/d/x/y")
        assert dc.contains("/dz")  # sibling with shared prefix survives

    def test_dirty_inodes_never_evicted(self):
        dc = DentryCache(capacity=4)
        dirty = VInode("/dirty", Stat(), dirty=True)
        dc.insert(dirty)
        for i in range(10):
            dc.insert(VInode(f"/clean{i}", Stat()))
        assert dc.contains("/dirty")

    def test_a_cache_of_dirty_inodes_grows_past_its_capacity(self):
        """With no clean entry to drop, an insert keeps every dirty
        inode and returns (bounded by an alarm: it must not spin)."""

        def expired(signum, frame):
            raise TimeoutError("DentryCache.insert did not return")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(5)
        try:
            dc = DentryCache(capacity=2)
            for name in ("/a", "/b", "/c"):
                dc.insert(VInode(name, Stat(), dirty=True))
            dc.insert(VInode("/clean", Stat()))
            dc.insert_negative("/missing")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [e.path for e in dc.dirty_inodes()] == ["/a", "/b", "/c"]
        # Every slot is dirty: a clean or negative entry goes at once.
        assert not dc.contains("/clean") and not dc.contains("/missing")

    def test_clear_clean_keeps_dirty(self):
        dc = DentryCache()
        dc.insert(VInode("/dirty", Stat(), dirty=True))
        dc.insert(VInode("/clean", Stat()))
        dc.clear_clean()
        assert dc.contains("/dirty")
        assert not dc.contains("/clean")
