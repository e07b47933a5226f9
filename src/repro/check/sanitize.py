"""Runtime sanitizers (opt-in via ``BeTreeConfig.sanitize``).

One :class:`SanitizerSuite` per :class:`~repro.core.env.KVEnv`,
installed by the environment when ``config.sanitize`` is True and wired
into the tree, cache, allocator, and device through each component's
``san`` attribute (``None`` by default — every hook site is guarded by
``if self.san is not None`` so the disabled path costs one attribute
load, mirroring the tracer pattern).

Sanitizers are *observers*: they never charge the simulated clock,
never mutate component state, and never touch LRU order (cache lookups
go through the private map, not :meth:`NodeCache.get`).  A
sanitizer-enabled run therefore produces bit-identical externalized
state and identical simulated time — the property
``tests/test_check.py`` locks in.

What each leg guards:

* **Tree** — the node invariants of :mod:`repro.check.invariants`
  (height kind, arity, pivot order, unique children, kept sizes and
  the buffer index recounted, MSNs, basement order, and every pivot,
  key and buffered message inside the routing range the parent
  assigns), checked on every flush, split, and node write-back, plus
  the fanout slack, which only the live config can state.
* **Cost** — the simulated clock and the device ``busy_until`` horizon
  are monotone, every device op observed at the charging point is
  recorded exactly once in :class:`~repro.device.stats.IOStats`, and
  I/O durations are non-negative.
* **Allocator/FTL** — no double-free or free-of-unknown buffer, and
  the block-table and flash-map invariants of
  :mod:`repro.check.invariants` (in-bounds non-overlapping extents,
  FTL valid-page conservation, every fully stored page mapped).
* **Cache** — pin/unpin balance, no aliased cache entries (two node
  objects under one id), no victim evicted dirty or pinned, no pin
  leaks on absent nodes; the node cache's byte ledger equals the
  summed node sizes and its leaf/internal LRUs partition the cached
  ids by kind (checked at every ``evict_to_fit``); the page cache's
  per-file index holds exactly the cached pages and ``dirty_bytes``
  counts exactly the dirty ones (:meth:`SanitizerSuite.watch_pagecache`).

Cheap local checks run at their hook site; whole-structure scans
(block tables, FTL divergence, cached-node walk) run at checkpoint via
:meth:`SanitizerSuite.on_checkpoint` and on demand via
:meth:`SanitizerSuite.check_all`.  A shared invariant raises its first
violation; offline fsck reports every one of the same statements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Type

from repro.check.errors import (
    AllocInvariantError,
    CacheInvariantError,
    CostInvariantError,
    InvariantError,
    TreeInvariantError,
    require,
)
from repro.check.invariants import blockman_faults, ftl_faults, node_faults
from repro.core.node import InternalNode
from repro.vfs.pagecache import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import KVEnv
    from repro.core.node import Node
    from repro.core.tree import BeTree

#: Internal nodes may transiently exceed the configured fanout (leaf
#: splits insert children immediately; the parent is only rebalanced on
#: its next flush).  This slack bound catches runaway growth without
#: tripping on the legitimate transient.
FANOUT_SLACK = 4
FANOUT_PAD = 16


def _raise_first(faults: Iterable[str], exc: Type[InvariantError]) -> None:
    for fault in faults:
        raise exc(fault)


class SanitizerSuite:
    """All runtime sanitizers for one environment."""

    def __init__(self, env: "KVEnv") -> None:
        self.env = env
        self.cfg = env.config
        self.clock = env.clock
        #: Last simulated instant seen at any hook (monotonicity).
        self._last_now = env.clock.now
        #: Per-device shadow counters: ops seen at the charging point.
        self._dev_ops: Dict[int, Dict[str, int]] = {}
        self._dev_busy: Dict[int, float] = {}
        #: Live simulated buffers (double-free detection).
        self._live_bufs: Set[int] = set()
        #: Shadow pin counts (cache balance).
        self._pins: Dict[int, int] = {}
        #: The mount's page cache, once :meth:`watch_pagecache` is told.
        self._pagecache = None
        self.check_config()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach to the environment's components (idempotent)."""
        self.env.cache.san = self
        self.env.alloc.san = self
        device = getattr(self.env.storage, "device", None)
        if device is not None:
            device.san = self

    def watch_pagecache(self, pages) -> None:
        """Attach to the page cache of the mount above this environment."""
        pages.san = self
        self._pagecache = pages

    # ------------------------------------------------------------------
    # Configuration (epsilon geometry)
    # ------------------------------------------------------------------
    def check_config(self) -> None:
        cfg = self.cfg
        require(
            cfg.fanout >= 2,
            "epsilon geometry: fanout must be >= 2",
            TreeInvariantError,
            cfg.fanout,
        )
        require(
            0 < cfg.basement_size <= cfg.node_size,
            "epsilon geometry: basement_size must be in (0, node_size]",
            TreeInvariantError,
            (cfg.basement_size, cfg.node_size),
        )
        require(
            0 < cfg.buffer_size <= cfg.node_size,
            "epsilon geometry: buffer_size must be in (0, node_size]",
            TreeInvariantError,
            (cfg.buffer_size, cfg.node_size),
        )

    # ------------------------------------------------------------------
    # Tree sanitizer
    # ------------------------------------------------------------------
    def check_node(
        self,
        tree: "BeTree",
        node: "Node",
        lo: Optional[bytes] = None,
        hi: Optional[bytes] = None,
    ) -> None:
        """The node invariants (:func:`~repro.check.invariants.node_faults`)
        with ``node`` routed ``[lo, hi)``, plus the fanout slack, which
        needs the live config."""
        _raise_first(
            (f"{tree.file_name}: {f}" for f in node_faults(node, lo, hi)),
            TreeInvariantError,
        )
        if isinstance(node, InternalNode):
            require(
                len(node.children) <= FANOUT_SLACK * self.cfg.fanout + FANOUT_PAD,
                "internal node width far beyond fanout (split not converging)",
                TreeInvariantError,
                (node.node_id, len(node.children), self.cfg.fanout),
            )

    # Hook: end of one flush batch (parent -> child).
    def on_flush(
        self,
        tree: "BeTree",
        parent: "InternalNode",
        idx: int,
        child: "Node",
    ) -> None:
        self.check_node(tree, parent)
        lo = hi = None
        if idx < len(parent.children) and parent.children[idx] == child.node_id:
            lo, hi = parent.child_range(idx)
        self.check_node(tree, child, lo, hi)

    # Hook: after any split (leaf, internal, or root).
    def on_split(
        self,
        tree: "BeTree",
        left: "Node",
        right: "Node",
        pivot: bytes,
        parent: Optional["InternalNode"] = None,
    ) -> None:
        self.check_node(tree, left, None, pivot)
        self.check_node(tree, right, pivot, None)
        if parent is not None:
            self.check_node(tree, parent)

    # Hook: node about to be serialized and persisted.
    def on_write_node(self, tree: "BeTree", node: "Node") -> None:
        self.check_node(tree, node)

    # ------------------------------------------------------------------
    # Cost sanitizer
    # ------------------------------------------------------------------
    def _tick(self, where: str) -> None:
        now = self.clock.now
        require(
            now >= self._last_now,
            f"simulated clock moved backwards at {where}",
            CostInvariantError,
            (self._last_now, now),
        )
        self._last_now = now

    def on_device_op(self, device, kind: str, duration: float) -> None:
        """Called by the device at each charging point (read / write /
        flush / discard)."""
        require(
            duration >= 0.0,
            "negative I/O duration",
            CostInvariantError,
            (kind, duration),
        )
        key = id(device)
        busy = self._dev_busy.get(key)
        if busy is not None:
            require(
                device.busy_until >= busy,
                "device busy_until moved backwards",
                CostInvariantError,
                (busy, device.busy_until),
            )
        self._dev_busy[key] = device.busy_until
        ops = self._dev_ops.setdefault(
            key, {"read": 0, "write": 0, "flush": 0, "discard": 0}
        )
        ops[kind] += 1
        self._tick(f"device.{kind}")

    def check_device(self, device) -> None:
        """Every op observed at the charging point must be in the stats
        exactly once — an op missing from the shadow count bypassed the
        cost-charging wrapper; an extra one was double-recorded."""
        ops = self._dev_ops.get(id(device))
        if ops is None:
            return
        stats = device.stats
        for kind, recorded in (
            ("read", stats.reads),
            ("write", stats.writes),
            ("flush", stats.flushes),
            ("discard", stats.discards),
        ):
            require(
                ops[kind] == recorded,
                f"device {kind} count drifted from the charged ops",
                CostInvariantError,
                (ops[kind], recorded),
            )
        require(
            stats.busy_time >= 0.0,
            "negative device busy_time",
            CostInvariantError,
            stats.busy_time,
        )
        if device.ftl is not None:
            _raise_first(
                (f"ftl: {f}" for f in ftl_faults(device.store, device.ftl)),
                AllocInvariantError,
            )

    # Hook: after every environment operation.
    def on_post_op(self) -> None:
        self._tick("env.post_op")

    # ------------------------------------------------------------------
    # Allocator sanitizer
    # ------------------------------------------------------------------
    def on_alloc(self, buf) -> None:
        require(
            buf.buf_id not in self._live_bufs,
            "allocator returned an already-live buffer id",
            AllocInvariantError,
            buf.buf_id,
        )
        require(
            0 < buf.size <= buf.capacity,
            "buffer size/capacity inconsistent",
            AllocInvariantError,
            (buf.buf_id, buf.size, buf.capacity),
        )
        self._live_bufs.add(buf.buf_id)

    def on_free(self, buf) -> None:
        require(
            buf.buf_id in self._live_bufs,
            "double free (or free of unknown buffer)",
            AllocInvariantError,
            buf.buf_id,
        )
        self._live_bufs.discard(buf.buf_id)

    def check_blockman(self, tree: "BeTree") -> None:
        _raise_first(
            (f"{tree.file_name}: {f}" for f in blockman_faults(tree.blockman)),
            AllocInvariantError,
        )

    # ------------------------------------------------------------------
    # Cache sanitizer
    # ------------------------------------------------------------------
    def on_cache_put(self, cache, node: "Node", existing) -> None:
        if existing is not None:
            require(
                existing is node,
                "cache aliasing: a different node object is already "
                "cached under this id",
                CacheInvariantError,
                node.node_id,
            )

    def on_pin(self, node_id: int) -> None:
        self._pins[node_id] = self._pins.get(node_id, 0) + 1

    def on_unpin(self, node_id: int) -> None:
        count = self._pins.get(node_id, 0)
        require(
            count > 0,
            "unpin without a matching pin",
            CacheInvariantError,
            node_id,
        )
        if count == 1:
            del self._pins[node_id]
        else:
            self._pins[node_id] = count - 1

    def on_evict(self, cache, node: "Node", pinned: bool) -> None:
        require(
            not pinned,
            "pinned node selected for eviction",
            CacheInvariantError,
            node.node_id,
        )
        require(
            not node.dirty,
            "dirty node evicted without write-back",
            CacheInvariantError,
            node.node_id,
        )

    @staticmethod
    def check_cache_ledger(cache) -> None:
        """The node cache's books against a full recount.  Only a node
        handed out since the last fit may differ from its recorded
        size, so right after a fit the ledger is the summed node sizes; what
        a node keeps for ``nbytes()`` — a leaf's pair bytes, an internal
        node's pivot bytes — is recounted from what it holds here, never
        trusted."""
        sizes = {**cache._leaves, **cache._internals}
        leaves = {nid for nid, (node, _o) in cache._nodes.items() if node.is_leaf}
        require(
            set(cache._leaves) == leaves and set(sizes) == set(cache._nodes),
            "node-cache LRU lists disagree with the cached nodes' kinds",
            CacheInvariantError,
            sorted(set(cache._leaves) ^ leaves),
        )
        kept = []
        for nid, (node, _o) in cache._nodes.items():
            if node.is_leaf:
                drifted = node.pair_bytes != sum(b.nbytes for b in node.basements)
            else:
                drifted = node.pivot_bytes != sum(map(len, node.pivots)) + 8 * (
                    len(node.pivots) + len(node.children)
                )
            if drifted:
                kept.append(nid)
        require(
            not kept,
            "node's kept size (a leaf's pair bytes, an internal node's pivot "
            "bytes) drifted from a recount of what it holds",
            CacheInvariantError,
            kept,
        )
        stale = [
            nid
            for nid, (node, _o) in cache._nodes.items()
            if nid not in cache._touched and sizes[nid] != node.nbytes()
        ]
        require(
            not stale and cache._used == sum(sizes.values()),
            "node-cache byte ledger drifted from the summed node sizes",
            CacheInvariantError,
            (stale, cache._used, sum(sizes.values())),
        )

    @staticmethod
    def check_pagecache(pages) -> None:
        """The page cache's per-file index (each mapping under its own
        name) and dirty counter against a scan of every cached page."""
        indexed = {
            (mapping, idx): page
            for mapping in pages._files.values()
            for idx, page in mapping.pages.items()
        }
        require(
            indexed == dict(pages._pages)
            and all(m.pages and m.path == p for p, m in pages._files.items()),
            "page-cache per-file index disagrees with the cached pages",
            CacheInvariantError,
            sorted((m.path, idx) for m, idx in set(indexed) ^ set(pages._pages)),
        )
        dirty = sum(page.dirty for page in pages._pages.values())
        require(
            pages.dirty_bytes == PAGE_SIZE * dirty,
            "page-cache dirty_bytes drifted from the dirty page count",
            CacheInvariantError,
            (pages.dirty_bytes, dirty),
        )

    def check_cache(self) -> None:
        cache = self.env.cache
        self.check_cache_ledger(cache)
        if self._pagecache is not None:
            self.check_pagecache(self._pagecache)
        for node_id in cache._pins:
            require(
                node_id in cache._nodes,
                "pin leak: pinned node no longer cached",
                CacheInvariantError,
                node_id,
            )
        for node_id, (node, owner) in cache._nodes.items():
            require(
                node.node_id == node_id,
                "cache key disagrees with the node's id",
                CacheInvariantError,
                (node_id, node.node_id),
            )
            self.check_node(owner, node)

    # ------------------------------------------------------------------
    # Whole-environment scans
    # ------------------------------------------------------------------
    def on_checkpoint(self) -> None:
        """Deep scan at each checkpoint (state is quiescent there)."""
        self.check_all()

    def check_all(self) -> None:
        self._tick("check_all")
        for tree in self.env.trees:
            self.check_blockman(tree)
        self.check_cache()
        device = getattr(self.env.storage, "device", None)
        if device is not None:
            self.check_device(device)
