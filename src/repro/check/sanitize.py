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

* **Tree** — pivot ordering, pivot/child arity, buffer byte
  accounting, buffer-index consistency, basement sort order, and that
  flushed/split nodes only hold keys inside the routing range their
  parent assigns them.  Checked on every flush, split, and node
  write-back.
* **Cost** — the simulated clock and the device ``busy_until`` horizon
  are monotone, every device op observed at the charging point is
  recorded exactly once in :class:`~repro.device.stats.IOStats`, and
  I/O durations are non-negative.
* **Allocator/FTL** — no double-free or free-of-unknown buffer, node
  translation tables and free lists hold in-bounds non-overlapping
  extents, the FTL valid-page conservation law holds, and the
  logical→physical map never diverges from the
  :class:`~repro.device.block.ExtentStore` (every fully stored page is
  mapped).
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
:meth:`SanitizerSuite.check_all`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.vfs.pagecache import PAGE_SIZE
from repro.check.errors import (
    AllocInvariantError,
    CacheInvariantError,
    CostInvariantError,
    TreeInvariantError,
    require,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import KVEnv
    from repro.core.node import InternalNode, LeafNode, Node
    from repro.core.tree import BeTree

#: Internal nodes may transiently exceed the configured fanout (leaf
#: splits insert children immediately; the parent is only rebalanced on
#: its next flush).  This slack bound catches runaway growth without
#: tripping on the legitimate transient.
FANOUT_SLACK = 4
FANOUT_PAD = 16


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
    def check_node(self, tree: "BeTree", node: "Node") -> None:
        from repro.core.node import InternalNode, LeafNode

        if isinstance(node, LeafNode):
            self.check_leaf(tree, node)
        elif isinstance(node, InternalNode):
            self.check_internal(tree, node)

    def check_internal(self, tree: "BeTree", node: "InternalNode") -> None:
        nid = node.node_id
        require(
            node.height >= 1,
            "internal node with leaf height",
            TreeInvariantError,
            nid,
        )
        require(
            len(node.pivots) == len(node.children) - 1,
            "pivot/child arity: len(pivots) != len(children) - 1",
            TreeInvariantError,
            (nid, len(node.pivots), len(node.children)),
        )
        for i in range(1, len(node.pivots)):
            require(
                node.pivots[i - 1] < node.pivots[i],
                "pivots not strictly increasing",
                TreeInvariantError,
                (nid, i),
            )
        require(
            len(set(node.children)) == len(node.children),
            "duplicate child id",
            TreeInvariantError,
            nid,
        )
        require(
            len(node.children) <= FANOUT_SLACK * self.cfg.fanout + FANOUT_PAD,
            "internal node width far beyond fanout (split not converging)",
            TreeInvariantError,
            (nid, len(node.children), self.cfg.fanout),
        )
        # Kept values are recounted, never trusted: each message's size
        # from its fields, the byte total from those, the point and
        # range indexes (and each key's arrival order) from the buffer.
        measured = [m.measure() for m in node.buffer]
        resized = [m for m, size in zip(node.buffer, measured) if m.size != size]
        require(
            not resized,
            "message size drifted from a recount of its fields",
            TreeInvariantError,
            (nid, resized),
        )
        total = sum(measured)
        require(
            node.buffer_bytes == total,
            "buffer_bytes drifted from the summed message sizes",
            TreeInvariantError,
            (nid, node.buffer_bytes, total),
        )
        points: Dict[bytes, list] = {}
        for msg in node.buffer:
            if not msg.is_range:
                points.setdefault(msg.key, []).append(msg)
        require(
            node.point_index == points
            and node.range_msgs == [m for m in node.buffer if m.is_range]
            and (node._sorted_keys is None or node._sorted_keys == sorted(points)),
            "buffer index out of sync with the buffer",
            TreeInvariantError,
            (nid, len(node.point_index), len(node.range_msgs), len(node.buffer)),
        )
        for msg in node.buffer:
            require(
                msg.msn <= node.msn_max,
                "buffered message newer than the node's msn_max",
                TreeInvariantError,
                (nid, msg.msn, node.msn_max),
            )

    def check_leaf(self, tree: "BeTree", leaf: "LeafNode") -> None:
        nid = leaf.node_id
        require(
            leaf.height == 0,
            "leaf node with internal height",
            TreeInvariantError,
            nid,
        )
        require(
            len(leaf.basements) >= 1,
            "leaf with no basements",
            TreeInvariantError,
            nid,
        )
        prev_last: Optional[bytes] = None
        for basement in leaf.basements:
            if not basement.loaded:
                first = basement.stub_first_key
                if first is not None:
                    if prev_last is not None:
                        require(
                            prev_last < first,
                            "basements out of order across a stub",
                            TreeInvariantError,
                            (nid, prev_last, first),
                        )
                    prev_last = first
                continue
            require(
                len(basement.keys)
                == len(basement.values)
                == len(basement.msns),
                "basement column lengths disagree",
                TreeInvariantError,
                nid,
            )
            for i in range(1, len(basement.keys)):
                require(
                    basement.keys[i - 1] < basement.keys[i],
                    "basement keys not strictly increasing",
                    TreeInvariantError,
                    (nid, i),
                )
            expected = sum(
                basement.pair_size(k, v) for k, v in basement.items()
            )
            require(
                basement.nbytes == expected,
                "basement nbytes drifted from the summed pair sizes",
                TreeInvariantError,
                (nid, basement.nbytes, expected),
            )
            if basement.keys:
                if prev_last is not None:
                    require(
                        prev_last < basement.keys[0],
                        "basements overlap or are out of order",
                        TreeInvariantError,
                        (nid, prev_last, basement.keys[0]),
                    )
                prev_last = basement.keys[-1]

    def check_routing(
        self,
        tree: "BeTree",
        node: "Node",
        lo: Optional[bytes],
        hi: Optional[bytes],
    ) -> None:
        """Every key held by ``node`` must lie in its routing range
        ``[lo, hi)`` (the range its parent assigns it)."""
        from repro.core.keys import in_range
        from repro.core.node import InternalNode, LeafNode

        nid = node.node_id
        if isinstance(node, LeafNode):
            for basement in node.basements:
                if not basement.loaded:
                    continue
                for key in (
                    basement.keys[:1] + basement.keys[-1:]
                    if basement.keys
                    else []
                ):
                    require(
                        in_range(key, lo, hi),
                        "leaf key outside its routing range",
                        TreeInvariantError,
                        (nid, key, lo, hi),
                    )
        elif isinstance(node, InternalNode):
            for pivot in node.pivots:
                require(
                    in_range(pivot, lo, hi),
                    "pivot outside the node's routing range",
                    TreeInvariantError,
                    (nid, pivot, lo, hi),
                )
            for key in node.point_index:
                require(
                    in_range(key, lo, hi),
                    "buffered point message outside the routing range",
                    TreeInvariantError,
                    (nid, key, lo, hi),
                )
            for rng in node.range_msgs:
                require(
                    rng.touches(lo, hi),
                    "buffered range message outside the routing range",
                    TreeInvariantError,
                    (nid, rng.start, rng.end, lo, hi),
                )

    # Hook: end of one flush batch (parent -> child).
    def on_flush(
        self,
        tree: "BeTree",
        parent: "InternalNode",
        idx: int,
        child: "Node",
    ) -> None:
        self.check_internal(tree, parent)
        self.check_node(tree, child)
        if idx < len(parent.children) and parent.children[idx] == child.node_id:
            lo, hi = parent.child_range(idx)
            self.check_routing(tree, child, lo, hi)

    # Hook: after any split (leaf, internal, or root).
    def on_split(
        self,
        tree: "BeTree",
        left: "Node",
        right: "Node",
        pivot: bytes,
        parent: Optional["InternalNode"] = None,
    ) -> None:
        self.check_node(tree, left)
        self.check_node(tree, right)
        self.check_routing(tree, left, None, pivot)
        self.check_routing(tree, right, pivot, None)
        if parent is not None:
            self.check_internal(tree, parent)

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
        ftl = device.ftl
        if ftl is not None:
            require(
                ftl.valid_pages() == ftl.mapped_pages(),
                "FTL valid-page conservation violated",
                AllocInvariantError,
                (ftl.valid_pages(), ftl.mapped_pages()),
            )
            self._check_ftl_divergence(device)

    def _check_ftl_divergence(self, device) -> None:
        """Every page fully covered by stored extents must be mapped:
        the extent store is the functional model, the FTL the
        accounting model, and they must describe the same bytes."""
        ftl = device.ftl
        page = ftl.geom.page_size
        for off, data in device.store.snapshot():
            first = (off + page - 1) // page
            last = (off + len(data)) // page  # exclusive
            for lpn in range(first, last):
                require(
                    lpn in ftl.map,
                    "stored page missing from the FTL map (divergence)",
                    AllocInvariantError,
                    (lpn, off, len(data)),
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
        """Node translation table and free lists: in bounds, aligned,
        and mutually non-overlapping."""
        bm = tree.blockman
        spans: List[Tuple[int, int, str]] = []
        for node_id, (off, ln) in bm.table.items():
            require(
                0 <= off and off + ln <= bm.file_size,
                "table extent out of file bounds",
                AllocInvariantError,
                (tree.file_name, node_id, off, ln),
            )
            require(
                ln > 0,
                "empty table extent",
                AllocInvariantError,
                (tree.file_name, node_id),
            )
            spans.append((off, bm._align(ln), f"node:{node_id}"))
        for off, ln in bm.free_list:
            require(
                0 <= off and off + ln <= bm.file_size,
                "free-list extent out of file bounds",
                AllocInvariantError,
                (tree.file_name, off, ln),
            )
            spans.append((off, ln, "free"))
        spans.sort()
        for i in range(1, len(spans)):
            p_off, p_len, p_what = spans[i - 1]
            c_off, _c_len, c_what = spans[i]
            require(
                p_off + p_len <= c_off,
                "overlapping extents (double allocation or double free)",
                AllocInvariantError,
                (tree.file_name, (p_what, p_off, p_len), (c_what, c_off)),
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
        size, so right after a fit the ledger is ``memory_used()``; what
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
