"""Node cache for the B-epsilon-tree environment.

One cache is shared by all trees in an environment (like TokuDB's
cachetable).  Nodes are kept by globally-unique node id; eviction is
LRU over unpinned nodes, writing back dirty victims through a
per-tree writer callback.

The byte total is a ledger, not a scan: each cached node's size as last
measured, their sum, and the ids handed out (``get``/``put``/the
iterators) since the last :meth:`NodeCache.evict_to_fit`, which
re-measures only those.  A node nobody was handed cannot have changed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.node import Node


class NodeCache:
    """Shared LRU node cache with pinning and dirty write-back."""

    def __init__(self, budget_bytes: int) -> None:
        self.budget = budget_bytes
        #: node_id -> (node, owner) in LRU order (oldest first).
        self._nodes: "OrderedDict[int, Tuple[Node, object]]" = OrderedDict()
        #: The same LRU order split by kind — victims are all leaves,
        #: oldest first, then internal nodes — as node_id -> bytes as
        #: last measured; ``_used`` is the sum over both.
        self._leaves: "OrderedDict[int, int]" = OrderedDict()
        self._internals: "OrderedDict[int, int]" = OrderedDict()
        self._used = 0
        #: Ids handed out since the last fit (their size may be stale).
        self._touched: Set[int] = set()
        self._pins: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        #: Optional sanitizer suite (pure observer; see repro.check).
        self.san = None

    # ------------------------------------------------------------------
    def get(self, node_id: int) -> Optional[Node]:
        entry = self._nodes.get(node_id)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        node = entry[0]
        self._nodes.move_to_end(node_id)
        (self._internals if node.height else self._leaves).move_to_end(node_id)
        self._touched.add(node_id)
        return node

    def put(self, node: Node, owner: object) -> None:
        node_id = node.node_id
        if self.san is not None:
            existing = self._nodes.get(node_id)
            self.san.on_cache_put(self, node, existing[0] if existing else None)
        if node_id in self._nodes:
            self._drop(node_id)
        self._nodes[node_id] = (node, owner)
        (self._internals if node.height else self._leaves)[node_id] = 0
        self._touched.add(node_id)

    def pin(self, node_id: int) -> None:
        if self.san is not None:
            self.san.on_pin(node_id)
        self._pins[node_id] = self._pins.get(node_id, 0) + 1

    def unpin(self, node_id: int) -> None:
        if self.san is not None:
            self.san.on_unpin(node_id)
        count = self._pins.get(node_id, 0) - 1
        if count <= 0:
            self._pins.pop(node_id, None)
        else:
            self._pins[node_id] = count

    def pinned(self, node_id: int) -> bool:
        return self._pins.get(node_id, 0) > 0

    def remove(self, node_id: int) -> None:
        if node_id in self._nodes:
            self._drop(node_id)

    def _drop(self, node_id: int) -> None:
        node = self._nodes.pop(node_id)[0]
        self._used -= (self._internals if node.height else self._leaves).pop(node_id)

    def owner_of(self, node_id: int) -> Optional[object]:
        entry = self._nodes.get(node_id)
        return entry[1] if entry else None

    # ------------------------------------------------------------------
    def evict_to_fit(
        self,
        writer: Callable[[object, Node], None],
        on_evict: Optional[Callable[[object, Node], None]] = None,
    ) -> None:
        """Evict LRU unpinned nodes until within budget.

        ``writer(owner, node)`` persists a dirty victim; ``on_evict``
        runs for every victim (releases simulated buffer memory).
        """
        # Settle the ledger: only a node handed out since the last fit
        # can have changed size, and most of those were only read.
        for node_id in self._touched:
            entry = self._nodes.get(node_id)
            if entry is not None:
                node = entry[0]
                sizes = self._internals if node.height else self._leaves
                size = node.nbytes()
                if size != sizes[node_id]:
                    self._used += size - sizes[node_id]
                    sizes[node_id] = size
        self._touched.clear()
        if self.san is not None:
            self.san.check_cache_ledger(self)
        used = self._used
        if used <= self.budget:
            return
        # Leaves are evicted before internal nodes (like the TokuDB
        # cachetable): internal nodes are tiny relative to the data
        # they index and re-reading them costs a random I/O per query.
        # (A snapshot of the ids: victims leave the LRUs mid-walk.)
        for node_id in [*self._leaves, *self._internals]:
            if used <= self.budget:
                break
            if self.pinned(node_id):
                continue
            node, owner = self._nodes[node_id]
            if node.dirty:
                writer(owner, node)
                self.dirty_evictions += 1
            if self.san is not None:
                self.san.on_evict(self, node, self.pinned(node_id))
            # What the victim holds now; the ledger drops what it
            # recorded (the two differ only for a node changed behind
            # the cache's back, which must not corrupt the books).
            used -= node.nbytes()
            self._drop(node_id)
            self.evictions += 1
            if on_evict is not None:
                on_evict(owner, node)

    def dirty_nodes(self):
        """Iterate (owner, node) over all dirty cached nodes."""
        self._touched.update(self._nodes)
        for node, owner in list(self._nodes.values()):
            if node.dirty:
                yield owner, node

    def all_nodes(self):
        self._touched.update(self._nodes)
        for node, owner in list(self._nodes.values()):
            yield owner, node

    def clear(self) -> None:
        for book in (
            self._nodes, self._leaves, self._internals, self._touched, self._pins
        ):
            book.clear()
        self._used = 0
