"""The B-epsilon-tree.

Write path: updates are encoded as messages and inserted into the root
node's buffer; when a buffer fills, a batch of messages is *flushed* to
the child with the most pending bytes, recursing as needed (§2.1).
PacMan compaction runs on every flush.  At the leaves, messages are
applied to basement nodes in MSN order.

Read path: a point query walks the root-to-leaf path, collecting the
pending messages that affect the key, and applies them to the leaf's
value.  The *apply-on-query* heuristic additionally pushes pending
messages into cached leaves; BetrFS v0.6 replaces the eager HDD-era
policy with a lazy one (§4, +QRY).

All CPU work (key comparisons, message moves, serialization, memory
allocation) and all I/O is charged to the environment's simulated
clock, which is how the paper's performance effects emerge.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core import pacman
from repro.core.messages import (
    Delete,
    Insert,
    InsertByRef,
    Message,
    PageFrame,
    Pair,
    Patch,
    PointMessage,
    RangeDelete,
    Value,
    release_message,
    value_len,
)
from repro.check.errors import TreeInvariantError, require
from repro.core.keys import intersect
from repro.core.node import BasementNode, InternalNode, LeafNode, Node
from repro.core.serialize import (
    NodeImage,
    decode_basement,
    decode_leaf_header,
    decode_node,
    frame_compressed,
    leaf_header_len,
    serialize_node,
    unframe,
)

#: What a partial leaf load reads first; a longer header region (some
#: hundred basements) costs it one more read.
LEAF_HEAD_READ = 8192
#: The keys ``[lo, hi)`` a reader needs of a leaf (see ``_load_node``).
KeySpan = Tuple[bytes, bytes]
from repro.core.checkpoint import BlockManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import KVEnv
    from repro.device.block import Payload, Segments
    from repro.storage.filelayer import Southbound

#: ``SEARCH_STEPS[n] == 1 + math.log2(n + 1)``: the comparisons an
#: ordered search over ``n`` entries is charged, for the sizes a probe
#: meets.  Each entry is the float the expression yields, so reading it
#: charges the same sim time as evaluating it; :func:`search_steps` is
#: the total function.
SEARCH_STEPS = tuple(1 + math.log2(n + 1) for n in range(8193))


def search_steps(n: int) -> float:
    return SEARCH_STEPS[n] if n < len(SEARCH_STEPS) else 1 + math.log2(n + 1)


@dataclass
class TreeStats:
    """Counters for one tree's behaviour."""

    inserts: int = 0
    deletes: int = 0
    patches: int = 0
    range_deletes: int = 0
    queries: int = 0
    range_queries: int = 0
    flushes: int = 0
    leaf_splits: int = 0
    internal_splits: int = 0
    root_splits: int = 0
    node_reads: int = 0
    node_writes: int = 0
    bytes_node_read: int = 0
    bytes_node_written: int = 0
    partial_leaf_loads: int = 0
    basement_loads: int = 0
    messages_flushed: int = 0
    messages_applied: int = 0
    aoq_examined: int = 0
    aoq_applied: int = 0
    aoq_moved: int = 0
    readahead_issued: int = 0
    readahead_hits: int = 0
    pacman: pacman.PacmanStats = field(default_factory=pacman.PacmanStats)


class BeTree:
    """One B-epsilon-tree index stored in one southbound file."""

    #: Methods traced when the observability scope traces (see
    #: :meth:`repro.obs.MountScope.instrument`).
    SPANS = {
        "get": ("tree.query", "tree", lambda tree, key: {"tree": tree.name}),
        "_flush_one_batch": (
            "tree.flush_batch", "tree", lambda tree, node: {"tree": tree.name},
        ),
        "_load_node_miss": (
            "tree.node_read", "tree",
            lambda tree, node_id, span=None: {"tree": tree.name, "node": node_id},
        ),
        "write_node": (
            "tree.node_write", "tree",
            lambda tree, node: {"tree": tree.name, "node": node.node_id},
        ),
    }

    def __init__(
        self,
        env: "KVEnv",
        tree_id: int,
        storage: Southbound,
        file_name: str,
        name: str,
        root_id: Optional[int] = None,
        blockman: Optional[BlockManager] = None,
    ) -> None:
        self.env = env
        self.tree_id = tree_id
        #: The southbound file the nodes live in, and the name the
        #: tree reports under (they differ past a device's first volume).
        self.file_name = file_name
        self.name = name
        self.cfg = env.config
        self.clock = env.clock
        self.costs = env.costs
        self.alloc = env.alloc
        self.storage = storage
        self.cache = env.cache
        self.stats = TreeStats()
        self.san = getattr(env, "san", None)
        obs = getattr(env, "obs", None)
        if obs is not None:
            obs.register_object(f"tree.{name}", self.stats, layer="tree")
            query = obs.latency("tree.query_latency", layer="tree", tree=name)
            obs.instrument(self, self.SPANS, {"get": query})
        if blockman is not None:
            self.blockman = blockman
        else:
            self.blockman = BlockManager(self.storage.file_size(file_name))
        if root_id is not None:
            # Reopened tree: the root is on disk.
            self.root_id = root_id
        else:
            root = LeafNode(env.new_node_id())
            self.root_id = root.node_id
            self.cache.put(root, self)
        #: Outstanding read-ahead completions: node_id -> Completion.
        self._prefetched: dict = {}
        #: Partial-leaf decode context: node_id -> (extent_off, prefix).
        self._partial_meta: dict = {}

    # ==================================================================
    # Public write operations
    # ==================================================================
    def put(self, key: bytes, value: Value, by_ref: bool = False) -> None:
        """Insert/overwrite ``key`` (blind write)."""
        self.stats.inserts += 1
        if by_ref:
            if not isinstance(value, PageFrame):
                raise TypeError("by_ref insert requires a PageFrame")
            msg: PointMessage = InsertByRef(key, value, self.env.new_msn())
        else:
            if isinstance(value, PageFrame):
                # Copying mode: the page is copied into the message.
                self.clock.cpu(self.costs.memcpy(len(value.data)))
                value = PageFrame(value.data)
            msg = Insert(key, value, self.env.new_msn())
        self._enqueue_root(msg)

    def delete(self, key: bytes) -> None:
        self.stats.deletes += 1
        self._enqueue_root(Delete(key, self.env.new_msn()))

    def patch(self, key: bytes, offset: int, data: bytes) -> None:
        """Blind sub-value write (no read-modify-write)."""
        self.stats.patches += 1
        self._enqueue_root(Patch(key, offset, data, self.env.new_msn()))

    def range_delete(self, start: bytes, end: bytes) -> None:
        """Atomically delete every key in [start, end)."""
        if start >= end:
            return
        self.stats.range_deletes += 1
        self._enqueue_root(RangeDelete(start, end, self.env.new_msn()))

    # ==================================================================
    # Public read operations
    # ==================================================================
    def get(self, key: bytes) -> Optional[Value]:
        """Point query (sequential reads are scans: :meth:`range_query`).

        One pass from the root to the leaf.  Per level: the pivot
        search, the buffer probe (point and range messages sit in
        ordered structures, OMTs: a logarithmic search each plus one
        interval check per match) and the child's cache lookup, each
        charged where it happens.  The charges stay separate ``cpu``
        calls in this order — float addition does not associate, so
        merging two would move the sim clock."""
        self.stats.queries += 1
        costs, cpu, cached = self.costs, self.clock.cpu, self.cache.get
        steps, top = SEARCH_STEPS, len(SEARCH_STEPS)
        cpu(costs.query_overhead)
        # Only the eager policy reads the leaf's key bounds.
        eager = not self.cfg.lazy_apply_on_query
        path: List[InternalNode] = []
        pending: List[Message] = []
        bound_lo: Optional[bytes] = None
        bound_hi: Optional[bytes] = None
        node = cached(self.root_id)
        if node is None:
            node = self._load_node_miss(self.root_id)
        while node.height:
            n = len(node.children)
            cpu(costs.pivot_search_step * (steps[n] if n < top else search_steps(n)))
            found = node.pending_for_key(key)
            n = len(node.point_index)
            cpu(costs.key_compare * (steps[n] if n < top else search_steps(n)))
            n = len(node.range_msgs)
            cpu(
                costs.range_check
                * ((steps[n] if n < top else search_steps(n)) + len(found))
            )
            pending += found
            path.append(node)
            idx = bisect.bisect_right(node.pivots, key)
            if eager:
                bound_lo, bound_hi = intersect(
                    bound_lo, bound_hi, *node.child_range(idx)
                )
            parent, child_id = node, node.children[idx]
            node = cached(child_id)
            if node is None:
                # A random read of a leaf needs one basement of it.
                node = self._load_node_miss(
                    child_id, None if parent.height > 1 else (key, key + b"\x00")
                )
        leaf = node
        if type(leaf) is not LeafNode:
            raise TreeInvariantError(
                f"descent ended on a non-leaf node: {type(leaf).__name__!r}"
            )
        basement = self._basement_for_query(leaf, key)
        present, base, base_msn = basement.get_with_msn(key)
        n = len(basement.keys)
        cpu(costs.key_compare * (steps[n] if n < top else search_steps(n)))
        if not pending:
            value = base  # None when absent
        else:
            value = self._apply_pending(
                (base, base_msn) if present else None, pending
            )
        if path:
            if eager:
                self._apply_on_query_eager(
                    path, leaf, basement, bound_lo, bound_hi
                )
            elif pending:
                self._apply_on_query_lazy(path, leaf, key)
        return value

    def range_query(
        self,
        start: bytes,
        end: bytes,
        limit: Optional[int] = None,
        seq_hint: bool = False,
    ) -> List[Tuple[bytes, Value]]:
        """All live key-value pairs in [start, end), in key order;
        ``seq_hint`` marks a sequential read (§3.2 read-ahead)."""
        self.stats.range_queries += 1
        self.clock.cpu(self.costs.query_overhead)
        results: List[Tuple[bytes, Value]] = []
        self._scan(self.root_id, start, end, [], results, limit, seq_hint)
        return results

    def empty_range(self, start: bytes, end: bytes) -> bool:
        """True if no live keys exist in [start, end)."""
        return not self.range_query(start, end, limit=1)

    # ==================================================================
    # Root ingestion and flushing
    # ==================================================================
    def _enqueue_root(self, msg: Message) -> None:
        self.clock.cpu(self.costs.message_overhead)
        self.alloc.note_message(msg.size)
        self.env.note_write()
        root = self._load_node(self.root_id)
        # The common case tests once; the check's message is built only
        # for a root that is not internal.
        if not isinstance(root, InternalNode):
            require(
                isinstance(root, LeafNode),
                "root is neither leaf nor internal",
                TreeInvariantError,
                type(root).__name__,
            )
            self._apply_to_leaf(root, [msg], None)
            self._maybe_split_root_leaf(root)
            return
        self._enqueue_internal(root, msg)
        if root.buffer_bytes > self.cfg.buffer_size:
            self._flush_node(root)
            self._maybe_split_root_internal(root)

    def _enqueue_internal(self, node: InternalNode, msg: Message) -> None:
        """Add one message to a node buffer, modeling buffer growth."""
        needed = node.buffer_bytes + msg.size
        buf = node.mem_buf
        if buf is None:
            node.mem_buf = self.alloc.alloc(
                self.alloc.suggested_capacity(max(4096, needed))
            )
        elif needed > buf.capacity:
            node.mem_buf = self.alloc.grow_doubling(
                buf, needed, used=node.buffer_bytes
            )
        node.enqueue(msg)
        node.dirty = True

    def _flush_node(self, node: InternalNode) -> None:
        """Flush batches out of ``node`` until its buffer is small enough."""
        guard = 0
        while node.buffer_bytes > self.cfg.buffer_size and node.buffer:
            guard += 1
            if guard > 65536:  # pragma: no cover - safety valve
                raise RuntimeError("flush did not converge")
            # Critical section (reentrancy audit, repro.sched): between
            # the buffer drain and the child application/split the tree
            # is inconsistent; no session switch may observe it.
            self.env.enter_critical()
            try:
                flushed = self._flush_one_batch(node)
            finally:
                self.env.exit_critical()
            if not flushed:
                break  # nothing routable (single stuck message)

    def _flush_one_batch(self, node: InternalNode) -> bool:
        """Flush the fattest child's batch; False if nothing routed."""
        self.stats.flushes += 1
        self.clock.cpu(self.costs.flush_overhead)
        idx = node.fattest_child()
        # Charging for the fattest-child scan (per message routed).
        self.clock.cpu(self.costs.key_compare * len(node.buffer))
        msgs = node.messages_for_child(idx)
        if not msgs:
            return False
        original = msgs  # compact leaves its input list as it was
        if self.cfg.pacman:
            # PacMan runs over the flushed child's buffer partition
            # (TokuDB buffers are partitioned per child).  A recursive
            # deletion routes everything to one child, so the §4
            # quadratic pathology is fully preserved; scattered
            # keyspaces compact in per-child slices.
            msgs, comparisons = pacman.compact(msgs, self.stats.pacman)
            self.clock.cpu(self.costs.pacman_compare * comparisons)
        child = self._load_node(node.children[idx])
        # Dropped messages were already released by PacMan; survivors
        # move down by reference.
        node.remove_messages(original, release=False)
        # A range message reaching past this child still owes its
        # deletions to the siblings: those parts stay buffered here.
        lo, hi = node.child_range(idx)
        owed: List[Optional[Message]] = []
        for m in original:
            if m.is_range and not m.within(lo, hi):
                if lo is not None:
                    owed.append(m.clip(None, lo))
                if hi is not None:
                    owed.append(m.clip(hi, None))
        if owed:
            node.set_buffer(
                sorted(
                    node.buffer + [part for part in owed if part is not None],
                    key=lambda m: m.msn,
                )
            )
        node.dirty = True
        self._charge_message_move(msgs)
        self.stats.messages_flushed += len(msgs)
        if isinstance(child, LeafNode):
            self._apply_to_leaf(child, msgs, node)
        else:
            require(
                isinstance(child, InternalNode),
                "flush target is neither leaf nor internal",
                TreeInvariantError,
                type(child).__name__,
            )
            for msg in msgs:
                self._enqueue_internal(child, msg)
            if child.buffer_bytes > self.cfg.buffer_size:
                self._flush_node(child)
            if len(child.children) > self.cfg.fanout:
                self._split_internal_child(node, idx, child)
        if self.san is not None:
            self.san.on_flush(self, node, idx, child)
        return True

    def _charge_message_move(self, msgs: List[Message]) -> None:
        """CPU cost of moving messages one level down.

        Without page sharing the complete data is memcpy-ed at each
        level (§2.3); with page sharing (§6) page values move by
        reference and only headers/keys are copied.
        """
        for msg in msgs:
            frame = msg.carried_frame() if self.cfg.page_sharing else None
            if frame is not None:
                self.clock.cpu(self.costs.memcpy(msg.size - len(frame)))
            else:
                # The copying path re-serializes the complete message
                # (key + value) into the next level's buffer (§2.3:
                # "the complete data is always memcpy-ed at each
                # level", including mempool bookkeeping).
                self.clock.cpu(self.costs.serialize(msg.size))

    # ------------------------------------------------------------------
    # Leaf application and splits
    # ------------------------------------------------------------------
    def _apply_to_leaf(
        self,
        leaf: LeafNode,
        msgs: List[Message],
        parent: Optional[InternalNode],
    ) -> None:
        self._ensure_loaded(leaf)
        for msg in sorted(msgs, key=lambda m: m.msn):
            if msg.is_range:
                # Per-pair MSNs make this safe against out-of-order
                # arrival: only pairs older than the range delete die.
                removed = leaf.apply_range_delete(msg)
                self.clock.cpu(
                    self.costs.range_check * max(1, len(leaf.basements))
                    + self.costs.message_apply * max(1, removed)
                )
            else:
                self.clock.cpu(self.costs.message_apply)
                if not self.cfg.page_sharing:
                    val = getattr(msg, "value", None)
                    if val is not None:
                        self.clock.cpu(self.costs.memcpy(value_len(val)))
                leaf.apply(msg, self.cfg.basement_size)
                release_message(msg)
            leaf.msn_max = max(leaf.msn_max, msg.msn)
            self.stats.messages_applied += 1
        leaf.prune_empty_basements()
        leaf.dirty = True
        if parent is not None:
            self._maybe_split_leaf(leaf, parent)

    def _maybe_split_leaf(self, leaf: LeafNode, parent: InternalNode) -> None:
        while leaf.nbytes() > self.cfg.node_size and leaf.pair_count() > 1:
            right, pivot = leaf.split(self.env.new_node_id())
            self.stats.leaf_splits += 1
            self.clock.cpu(self.costs.flush_overhead)
            self.cache.put(right, self)
            idx = parent.children.index(leaf.node_id)
            parent.add_child(pivot, right.node_id, idx)
            parent.dirty = True
            if self.san is not None:
                self.san.on_split(self, leaf, right, pivot, parent)
            leaf = right  # right half may still be oversized

    def _maybe_split_root_leaf(self, root: LeafNode) -> None:
        if root.nbytes() <= self.cfg.node_size or root.pair_count() <= 1:
            return
        self.env.enter_critical()
        try:
            self._split_root_leaf(root)
        finally:
            self.env.exit_critical()

    def _split_root_leaf(self, root: LeafNode) -> None:
        right, pivot = root.split(self.env.new_node_id())
        self.stats.leaf_splits += 1
        self.stats.root_splits += 1
        new_root = InternalNode(
            self.env.new_node_id(), 1, [pivot], [root.node_id, right.node_id]
        )
        new_root.mem_buf = self.alloc.alloc(4096)
        self.cache.put(right, self)
        self.cache.put(new_root, self)
        self.root_id = new_root.node_id
        if self.san is not None:
            self.san.on_split(self, root, right, pivot, new_root)

    def _maybe_split_root_internal(self, root: InternalNode) -> None:
        if len(root.children) <= self.cfg.fanout:
            return
        self.env.enter_critical()
        try:
            self._split_root_internal(root)
        finally:
            self.env.exit_critical()

    def _split_root_internal(self, root: InternalNode) -> None:
        right, pivot = root.split(self.env.new_node_id())
        right.mem_buf = self.alloc.alloc(max(4096, right.buffer_bytes))
        self.stats.internal_splits += 1
        self.stats.root_splits += 1
        new_root = InternalNode(
            self.env.new_node_id(), root.height + 1, [pivot], [root.node_id, right.node_id]
        )
        new_root.mem_buf = self.alloc.alloc(4096)
        self.cache.put(right, self)
        self.cache.put(new_root, self)
        self.root_id = new_root.node_id
        if self.san is not None:
            self.san.on_split(self, root, right, pivot, new_root)

    def _split_internal_child(
        self, parent: InternalNode, idx: int, child: InternalNode
    ) -> None:
        right, pivot = child.split(self.env.new_node_id())
        right.mem_buf = self.alloc.alloc(max(4096, right.buffer_bytes))
        self.stats.internal_splits += 1
        self.clock.cpu(self.costs.flush_overhead)
        self.cache.put(right, self)
        parent.add_child(pivot, right.node_id, idx)
        parent.dirty = True
        if self.san is not None:
            self.san.on_split(self, child, right, pivot, parent)

    # ==================================================================
    # Query helpers
    # ==================================================================
    def _apply_pending(
        self, pair: Pair, pending: List[Message]
    ) -> Optional[Value]:
        """Materialize the queried value: fold the pending messages, in
        MSN order, over the pair the leaf currently holds.  Stale ones
        are copies of work that already reached the leaf; they are not
        charged."""
        for msg in sorted(pending, key=lambda m: m.msn):
            if msg.is_stale(pair):
                continue
            self.clock.cpu(self.costs.message_apply)
            pair = msg.transition(pair)
        return None if pair is None else pair[0]

    def _basement_range(
        self, leaf: LeafNode, idx: int
    ) -> Tuple[Optional[bytes], Optional[bytes]]:
        lo = leaf.basements[idx].first_key()
        hi = None
        if idx + 1 < len(leaf.basements):
            hi = leaf.basements[idx + 1].first_key()
        return lo, hi

    def _basement_for_query(self, leaf: LeafNode, key: bytes) -> BasementNode:
        idx = leaf.basement_index_for(key)
        basement = leaf.basements[idx]
        if not basement.loaded:
            self._load_basements(leaf, idx, idx + 1)
            basement = leaf.basements[idx]
        return basement

    # ------------------------------------------------------------------
    # Apply-on-query (§4)
    # ------------------------------------------------------------------
    def _apply_on_query_eager(
        self,
        path: List[InternalNode],
        leaf: LeafNode,
        basement: BasementNode,
        bound_lo: Optional[bytes],
        bound_hi: Optional[bytes],
    ) -> None:
        """HDD-era policy: on every query, push down / pre-apply all
        pending messages targeting the queried basement (clean leaf) or
        the whole leaf (dirty leaf) — CPU-hungry on an SSD.

        ``bound_lo``/``bound_hi`` are the leaf's key range implied by
        the pivots on the descent path; messages outside them belong to
        other leaves and must never be moved here.
        """
        if leaf.dirty:
            lo, hi = bound_lo, bound_hi  # the whole leaf
        else:
            idx = leaf.basements.index(basement)
            lo, hi = intersect(*self._basement_range(leaf, idx), bound_lo, bound_hi)
        to_move: List[Message] = []
        charged_only = 0
        for node in path:
            relevant: List[Message] = []
            # Point messages come from the buffer's ordered index
            # (O(log n + k)); every buffered *range* message must be
            # checked individually — overlapping intervals have no
            # cheap index (the heart of the §4 pathology).
            n_points = len(node.point_index)
            self.clock.cpu(self.costs.key_compare * 2 * math.log2(n_points + 2))
            for key in node.point_keys_in_range(lo, hi):
                msgs = node.point_index.get(key, ())
                self.stats.aoq_examined += len(msgs)
                self.clock.cpu(self.costs.key_compare * len(msgs))
                relevant.extend(msgs)
            for msg in node.range_msgs:
                self.stats.aoq_examined += 1
                self.clock.cpu(self.costs.range_check)
                if msg.touches(lo, hi):
                    relevant.append(msg)
            if not relevant:
                continue
            if leaf.dirty:
                # Move messages into the leaf ("flush").  A range
                # message extending beyond the leaf's bounds still owes
                # deletions to sibling leaves and must stay.
                movable = [m for m in relevant if m.within(lo, hi)]
                charged_only += len(relevant) - len(movable)
                if movable:
                    node.remove_messages(movable, release=False)
                    node.dirty = True
                    to_move.extend(movable)
            else:
                charged_only += len(relevant)
        if to_move:
            # Apply once, across all path nodes, in MSN order — patches
            # are not commutative, so per-node application would be
            # incorrect.
            to_move += self._taken_along(to_move, path, lo, hi)
            self._apply_to_leaf(leaf, to_move, None)
            self.stats.aoq_moved += len(to_move)
        for _ in range(charged_only):
            # Materialized-view work: CPU is spent, tree state unchanged.
            self.clock.cpu(self.costs.message_apply)
            self.stats.aoq_applied += 1

    @staticmethod
    def _taken_along(
        moving: List[Message],
        path: List[InternalNode],
        lo: Optional[bytes],
        hi: Optional[bytes],
    ) -> List[Message]:
        """The parts, within ``[lo, hi)``, of the range messages still
        buffered on ``path`` that a message in ``moving`` depends on.
        A blind write may reach the leaf ahead of an older range delete
        that stays above it (the delete is stale against its pair); a
        patch would patch the value the delete was to remove, so it
        takes a clipped copy of the delete along."""
        patches = [m for m in moving if not m.blind]
        if not patches:
            return []
        return [
            r.clip(lo, hi)
            for node in path
            for r in node.range_msgs
            if r.touches(lo, hi)
            and any(r.msn < p.msn and r.affects(p.key) for p in patches)
        ]

    def _apply_on_query_lazy(
        self, path: List[InternalNode], leaf: LeafNode, key: bytes
    ) -> None:
        """§4 +QRY policy: only move/apply the messages that affected
        this query's key."""
        to_move: List[Message] = []
        for node in path:
            relevant = node.pending_for_key(key)
            if not relevant:
                continue
            if leaf.dirty:
                point_only = [m for m in relevant if not m.is_range]
                if point_only:
                    node.remove_messages(point_only, release=False)
                    node.dirty = True
                    to_move.extend(point_only)
            else:
                for _ in relevant:
                    self.clock.cpu(self.costs.message_apply)
                    self.stats.aoq_applied += 1
        if to_move:
            to_move += self._taken_along(to_move, path, key, key + b"\x00")
            self._apply_to_leaf(leaf, to_move, None)
            self.stats.aoq_moved += len(to_move)

    # ------------------------------------------------------------------
    # Range scan
    # ------------------------------------------------------------------
    def _scan(
        self,
        node_id: int,
        start: bytes,
        end: bytes,
        pending: List[Message],
        results: List[Tuple[bytes, Value]],
        limit: Optional[int],
        seq_hint: bool,
    ) -> None:
        node = self._load_node(node_id)
        if isinstance(node, LeafNode):
            self._scan_leaf(node, start, end, pending, results, limit)
            return
        require(
            isinstance(node, InternalNode),
            "scan met a node that is neither leaf nor internal",
            TreeInvariantError,
            type(node).__name__,
        )
        self.clock.cpu(
            self.costs.pivot_search_step * search_steps(len(node.children))
        )
        # Extract buffered messages overlapping the scan range: point
        # messages via the ordered index, range messages one by one.
        relevant: List[Message] = []
        n_points = len(node.point_index)
        self.clock.cpu(self.costs.key_compare * 2 * math.log2(n_points + 2))
        for key in node.point_keys_in_range(start, end):
            msgs = node.point_index.get(key, ())
            self.clock.cpu(self.costs.key_compare * len(msgs))
            relevant.extend(msgs)
        n_ranges = len(node.range_msgs)
        matches = 0
        for msg in node.range_msgs:
            if msg.touches(start, end):
                relevant.append(msg)
                matches += 1
        self.clock.cpu(self.costs.range_check * (search_steps(n_ranges) + matches))
        lo_idx = node.child_index_for(start)
        # ``end`` is exclusive: a child whose range starts at it holds
        # no key of the scan.
        hi_idx = bisect.bisect_left(node.pivots, end)
        for idx in range(lo_idx, min(hi_idx + 1, len(node.children))):
            if limit is not None and len(results) >= limit:
                return
            # Clip to the child's own key range: ``pending`` carries
            # this node's buffered messages for *every* child in the
            # scan, and a leaf overlays whatever falls in the range it
            # is handed — a sibling's key would be emitted once per leaf.
            child_lo, child_hi = node.child_range(idx)
            lo, hi = intersect(start, end, child_lo, child_hi)
            if node.height == 1:
                # Load the current leaf first — of one an unhinted scan
                # covers in part, only the basements it covers — then
                # queue the prefetch of the next one behind it (§3.2): a
                # sequential reader reads leaves whole and will want the
                # next one even past this scan's end.
                whole = seq_hint or (lo, hi) == (child_lo or b"", child_hi)
                self._load_node(node.children[idx], None if whole else (lo, hi))
                if self.cfg.tree_readahead and (seq_hint or idx + 1 <= hi_idx):
                    self._issue_leaf_readahead(node, idx + 1)
            self._scan(
                node.children[idx], lo, hi, pending + relevant, results, limit, seq_hint
            )

    def _scan_leaf(
        self,
        leaf: LeafNode,
        start: bytes,
        end: bytes,
        pending: List[Message],
        results: List[Tuple[bytes, Value]],
        limit: Optional[int],
    ) -> None:
        self._ensure_loaded(leaf, start, end)
        # Materialize: collect base pairs (with their MSNs) in range,
        # then overlay pending messages in MSN order.  For small-limit
        # scans (cursor seeks) only a bounded candidate window is
        # materialized; pending deletes can shrink it, in which case we
        # retry with a wider window.
        cap: Optional[int] = None
        if limit is not None:
            cap = limit + len(pending) + 8
        while True:
            view = self._materialize_leaf_view(leaf, start, end, cap)
            candidates = len(view)
            # A full window stops short of ``end``: a message past its
            # last pair waits for a wider one, or its key would come
            # back ahead of the pairs the window left out.
            full = cap is not None and candidates >= cap
            hi = max(view) + b"\x00" if full else end
            self._overlay_pending(view, pending, start, hi)
            if (
                cap is None
                or len(view) >= (limit or 0)
                or candidates < cap
            ):
                break
            cap *= 4  # deletes ate the window; widen and retry
        for key in sorted(view):
            if limit is not None and len(results) >= limit:
                return
            results.append((key, view[key][0]))

    def _materialize_leaf_view(
        self,
        leaf: LeafNode,
        start: bytes,
        end: bytes,
        cap: Optional[int],
    ) -> dict:
        view: dict = {}
        for basement in leaf.basements:
            if not basement.loaded:
                continue  # outside [start, end): _scan_leaf loaded the rest
            lo = bisect.bisect_left(basement.keys, start)
            hi = bisect.bisect_left(basement.keys, end)
            if cap is not None:
                hi = min(hi, lo + max(0, cap - len(view)))
            for i in range(lo, hi):
                view[basement.keys[i]] = (basement.values[i], basement.msns[i])
            self.clock.cpu(self.costs.key_compare * (hi - lo + 2))
            if cap is not None and len(view) >= cap:
                break
        return view

    def _overlay_pending(
        self,
        view: dict,
        pending: List[Message],
        start: bytes,
        end: bytes,
    ) -> None:
        """Fold ``pending``, in MSN order, over the leaf's ``view``
        (key -> pair) of ``[start, end)``."""
        for msg in sorted(pending, key=lambda m: m.msn):
            self.clock.cpu(self.costs.message_apply)
            # Clipped to the leaf's range: ``pending`` holds messages
            # for every leaf of the scan, and a blind write overlaid
            # outside its own leaf would come back once per leaf.
            if msg.is_range:
                keys = [k for k in view if msg.affects(k)]
            else:
                keys = [msg.key] if msg.touches(start, end) else []
            for k in keys:
                new = msg.transition(view.get(k))
                if new is None:
                    view.pop(k, None)
                else:
                    view[k] = new

    # ==================================================================
    # Node I/O
    # ==================================================================
    def _issue_leaf_readahead(self, parent: InternalNode, idx: int) -> None:
        """Asynchronously prefetch child ``idx`` of ``parent``."""
        if idx >= len(parent.children):
            return
        child_id = parent.children[idx]
        if (
            child_id in self._prefetched
            or self.cache.get(child_id) is not None
            or not self.blockman.contains(child_id)
        ):
            return
        off, ln = self.blockman.lookup(child_id)
        self._prefetched[child_id] = self.storage.prefetch(self.file_name, off, ln)
        self.stats.readahead_issued += 1

    def _load_node(self, node_id: int, span: Optional[KeySpan] = None) -> Node:
        node = self.cache.get(node_id)
        if node is not None:
            return node
        return self._load_node_miss(node_id, span)

    def _load_node_miss(self, node_id: int, span: Optional[KeySpan] = None) -> Node:
        """What follows a ``cache.get`` that came back empty (the point
        query tests the hit inline and calls this itself).  A caller
        that gives ``span`` knows the node for a leaf and needs of it
        only the basements that may hold a key of ``[lo, hi)``."""
        if not self.blockman.contains(node_id):
            raise KeyError(f"node {node_id} has no on-disk extent")
        signal = self.env.block_signal
        if signal is not None:
            signal.note("tree_io")
        off, ln = self.blockman.lookup(node_id)
        completion = self._prefetched.pop(node_id, None)
        if completion is not None:
            node = self._decode_full(self.storage.finish_read(completion))
            self.stats.readahead_hits += 1
            self.stats.bytes_node_read += ln
        elif (
            span is not None
            # Worth it when the head and one basement are not the whole
            # leaf; a compressed extent is one stream.
            and ln > LEAF_HEAD_READ + self.cfg.basement_size
            and not self.cfg.compression
        ):
            node = self._load_leaf_partial(node_id, off, ln, *span)
        else:
            node = self._decode_full(self.storage.read_segments(self.file_name, off, ln))
            self.stats.bytes_node_read += ln
        self.stats.node_reads += 1
        if isinstance(node, InternalNode):
            node.mem_buf = self.alloc.alloc(
                self.alloc.suggested_capacity(max(4096, node.buffer_bytes))
            )
        self.cache.put(node, self)
        return node

    def _decode_full(self, segments: Segments) -> Node:
        """Decode a node from the segments a read returned: each page
        slot the store holds as one segment is decoded by reference."""
        image, inflated = unframe(segments)
        if inflated:
            self.clock.cpu(
                self.costs.cpu_scale * self.costs.compress_per_byte * inflated
            )
        split: List[int] = []
        node = decode_node(image, aligned=self.cfg.page_sharing, cost_split=split)
        self._charge_decode(image.length, image.length, split[1])
        return node

    def _charge_decode(self, read: int, nbytes: int, bulk: int) -> None:
        """What one read costs above its I/O: the deserialization buffer
        for the ``read`` bytes, and the CPU of verifying and decoding
        ``nbytes`` of them, ``bulk`` being large values — checksummed
        all, the values copied (unless pages are shared), the rest
        deserialized."""
        buf = self.alloc.alloc(self.alloc.suggested_capacity(read))
        self.clock.cpu(self.costs.checksum(nbytes))
        self.clock.cpu(self.costs.serialize(nbytes - bulk))
        if not self.cfg.page_sharing:
            self.clock.cpu(self.costs.memcpy(bulk))
        self.alloc.free(buf, size_hint=buf.capacity)

    # ------------------------------------------------------------------
    # Partial leaf loads (basement-granular reads, §2.2)
    # ------------------------------------------------------------------
    def _load_leaf_partial(
        self, node_id: int, off: int, ln: int, lo: bytes, hi: bytes
    ) -> LeafNode:
        """Read only the leaf's header region and the basements that may
        hold a key of ``[lo, hi)`` — one, for a point query's
        ``[key, key + b"\\x00")``; the others stay stubs until something
        needs them."""
        head = NodeImage(self.storage.read_segments(self.file_name, off, LEAF_HEAD_READ))
        nread = max(leaf_header_len(head, ln), LEAF_HEAD_READ)
        if nread > LEAF_HEAD_READ:
            head = NodeImage(head.parts + self.storage.read_segments(
                self.file_name, off + LEAF_HEAD_READ, nread - LEAF_HEAD_READ
            ))
        self.stats.bytes_node_read += nread
        header = decode_leaf_header(head, ln)
        self._charge_decode(nread, header.header_len, 0)
        stubs: List[BasementNode] = []
        for extent, fk in zip(header.basement_extents, header.basement_first_keys):
            stub = BasementNode()
            stub.loaded = False
            stub.stub_first_key = fk
            stub.stub_extent = extent
            stubs.append(stub)
        leaf = LeafNode(node_id, stubs)
        leaf.dirty = False
        self.stats.partial_leaf_loads += 1
        # Stash decode context keyed by node id for later basement loads.
        self._partial_meta[node_id] = (off, header.lift_prefix)
        self._ensure_loaded(leaf, lo, hi)
        return leaf

    def _load_basements(self, leaf: LeafNode, lo: int, hi: int) -> None:
        """Read the unloaded basements ``lo`` to ``hi - 1`` of ``leaf``,
        adjacent on disk, with one I/O, verified and charged byte for
        byte as :meth:`_decode_full` would."""
        meta = self._partial_meta.get(leaf.node_id)
        if meta is None:
            raise RuntimeError("missing partial-load context")
        base_off, prefix = meta
        extents = [leaf.basements[idx].stub_extent for idx in range(lo, hi)]
        require(
            None not in extents,
            "unloaded basement has no stub extent",
            TreeInvariantError,
            (leaf.node_id, lo, hi),
        )
        start = extents[0][0]
        length = extents[-1][0] + extents[-1][1] - start
        signal = self.env.block_signal
        if signal is not None:
            signal.note("tree_io")
        image = NodeImage(
            self.storage.read_segments(self.file_name, base_off + start, length)
        )
        self.stats.bytes_node_read += length
        bulk = 0
        for idx, extent in zip(range(lo, hi), extents):
            basement, b = decode_basement(
                image, extent[0] - start, idx, extent, prefix, self.cfg.page_sharing
            )
            leaf.replace_basement(idx, basement)
            bulk += b
        self._charge_decode(length, length, bulk)
        self.stats.basement_loads += hi - lo

    def _ensure_loaded(
        self, leaf: LeafNode, lo: Optional[bytes] = None, hi: Optional[bytes] = None
    ) -> None:
        """Fetch what a partial load left on disk of the basements that
        may hold a key of ``[lo, hi)`` (by default, of all of them):
        each run of adjacent unloaded ones with one read."""
        basements = leaf.basements
        first, stop = leaf.basement_span(lo, hi)
        while first < stop:
            end = first
            while end < stop and not basements[end].loaded:
                end += 1
            if end > first:
                self._load_basements(leaf, first, end)
            first = end + 1
        if leaf.node_id in self._partial_meta and all(b.loaded for b in basements):
            del self._partial_meta[leaf.node_id]

    # ------------------------------------------------------------------
    # Node write-back
    # ------------------------------------------------------------------
    def write_node(self, node: Node) -> None:
        """Serialize and persist one node (CoW)."""
        if isinstance(node, LeafNode):
            self._ensure_loaded(node)
        ser = serialize_node(
            node, aligned=self.cfg.page_sharing, lifting=self.cfg.lifting
        )
        self.clock.cpu(self.costs.serialize(ser.small_bytes))
        self.clock.cpu(self.costs.memcpy(ser.copied_bytes))
        self.clock.cpu(self.costs.checksum(ser.length))
        # Scatter-gather: the segments, pages among them, go to the
        # device as they are.
        data: Payload = ser.segments
        length = ser.length
        if self.cfg.compression:
            # Real compression (the paper runs with this *disabled*:
            # "the computational costs can delay I/Os for little
            # benefit" — the ablation benchmark measures exactly that).
            self.clock.cpu(
                self.costs.cpu_scale
                * self.costs.compress_per_byte
                * length
            )
            data = frame_compressed(ser.segments)
            length = len(data)
        buf = self.alloc.alloc(self.alloc.suggested_capacity(length))
        off, dead = self.blockman.relocate(node.node_id, length)
        self.storage.write(self.file_name, off, data, byref=True)
        if dead is not None:
            # No checkpoint ever referenced the superseded copy.
            self.storage.discard(self.file_name, *dead)
        self.alloc.free(buf, size_hint=buf.capacity)
        node.dirty = False
        self.stats.node_writes += 1
        self.stats.bytes_node_written += length
        if self.san is not None:
            self.san.on_write_node(self, node)

    def write_dirty_nodes(self) -> int:
        """Persist every dirty cached node of this tree (checkpoint)."""
        count = 0
        for owner, node in self.cache.all_nodes():
            if owner is self and node.dirty:
                self.write_node(node)
                count += 1
        return count

    def release_node_memory(self, node: Node) -> None:
        """Called on cache eviction: free the simulated buffer and drop
        page-frame references (the VFS may then elide CoW copies)."""
        if isinstance(node, InternalNode):
            if node.mem_buf is not None:
                self.alloc.free(node.mem_buf, size_hint=node.mem_buf.capacity)
                node.mem_buf = None
            for msg in node.buffer:
                release_message(msg)
        elif isinstance(node, LeafNode):
            for basement in node.basements:
                for value in basement.values:
                    if isinstance(value, PageFrame):
                        value.put()
        self._partial_meta.pop(node.node_id, None)

