"""B-epsilon-tree nodes.

* :class:`BasementNode` — a packed run of key-value pairs (~128 KiB);
  the unit of partial leaf reads.
* :class:`LeafNode` — an ordered sequence of basement nodes.
* :class:`InternalNode` — pivots, children, and a message buffer.

Nodes never touch the simulated clock themselves; all cost charging is
done by the tree (which knows the configuration and feature flags).
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

from repro.check.errors import TreeInvariantError, require
from repro.core.messages import (
    Message,
    PageFrame,
    PointMessage,
    RangeDelete,
    Value,
    release_message,
    value_len,
)


class BasementNode:
    """A sorted run of key-value pairs inside a leaf.

    Every pair carries the MSN of the message that last wrote it, so
    out-of-order message arrival (possible once apply-on-query moves
    messages down early) is resolved correctly: an older message never
    clobbers a newer pair, and a range delete only removes pairs older
    than itself.
    """

    __slots__ = (
        "keys",
        "values",
        "msns",
        "nbytes",
        "loaded",
        "stub_first_key",
        "stub_extent",
    )

    #: Fixed per-pair overhead used for size accounting (incl. MSN).
    PAIR_OVERHEAD = 20

    def __init__(self) -> None:
        self.keys: List[bytes] = []
        self.values: List[Value] = []
        self.msns: List[int] = []
        self.nbytes = 0
        #: False when this basement's contents have not been read from
        #: disk (partial leaf load).
        self.loaded = True
        #: For unloaded stubs: the basement's first key (from the leaf
        #: header) and its (offset, length) extent within the node.
        self.stub_first_key: Optional[bytes] = None
        self.stub_extent: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    def pair_size(self, key: bytes, value: Value) -> int:
        return self.PAIR_OVERHEAD + len(key) + value_len(value)

    def get(self, key: bytes) -> Tuple[bool, Optional[Value]]:
        """Return (present, value)."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i]
        return False, None

    def get_with_msn(self, key: bytes) -> Tuple[bool, Optional[Value], int]:
        """Return (present, value, pair_msn)."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i], self.msns[i]
        return False, None, 0

    def set(self, key: bytes, value: Value, msn: int = 0) -> None:
        i = bisect.bisect_left(self.keys, key)
        present = i < len(self.keys) and self.keys[i] == key
        self._set_at(i, present, key, value, msn)

    def _set_at(self, i: int, present: bool, key: bytes, value: Value, msn: int) -> None:
        """Store the pair at slot ``i``, which ``key`` occupies already
        (``present``) or would be inserted at."""
        if present:
            old = self.values[i]
            self.nbytes -= self.pair_size(key, old)
            if isinstance(old, PageFrame):
                old.put()
            self.values[i] = value
            self.msns[i] = msn
        else:
            self.keys.insert(i, key)
            self.values.insert(i, value)
            self.msns.insert(i, msn)
        self.nbytes += self.pair_size(key, value)

    def remove(self, key: bytes) -> bool:
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            self._remove_at(i)
            return True
        return False

    def _remove_at(self, i: int) -> None:
        value = self.values[i]
        self.nbytes -= self.pair_size(self.keys[i], value)
        if isinstance(value, PageFrame):
            value.put()
        del self.keys[i]
        del self.values[i]
        del self.msns[i]

    def remove_range(self, start: bytes, end: bytes, before_msn: Optional[int] = None) -> int:
        """Remove pairs in [start, end) older than ``before_msn``.

        ``before_msn=None`` removes unconditionally.  Returns the
        number of pairs removed.
        """
        lo = bisect.bisect_left(self.keys, start)
        hi = bisect.bisect_left(self.keys, end)
        keep_k: List[bytes] = []
        keep_v: List[Value] = []
        keep_m: List[int] = []
        removed = 0
        for i in range(lo, hi):
            if before_msn is not None and self.msns[i] >= before_msn:
                keep_k.append(self.keys[i])
                keep_v.append(self.values[i])
                keep_m.append(self.msns[i])
                continue
            value = self.values[i]
            self.nbytes -= self.pair_size(self.keys[i], value)
            if isinstance(value, PageFrame):
                value.put()
            removed += 1
        self.keys[lo:hi] = keep_k
        self.values[lo:hi] = keep_v
        self.msns[lo:hi] = keep_m
        return removed

    def apply(self, msg: PointMessage) -> bool:
        """Apply one point message; returns False if it was stale."""
        key = msg.key
        i = bisect.bisect_left(self.keys, key)
        present = i < len(self.keys) and self.keys[i] == key
        pair = (self.values[i], self.msns[i]) if present else None
        if msg.is_stale(pair):
            return False
        new = msg.transition(pair)
        if new is not None:
            # The basement takes its own reference; the message's
            # reference is released by the caller (release_message).
            msg.retain()
            self._set_at(i, present, key, new[0], new[1])
        elif present:
            self._remove_at(i)
        return True

    def first_key(self) -> Optional[bytes]:
        if not self.loaded:
            return self.stub_first_key
        return self.keys[0] if self.keys else None

    def last_key(self) -> Optional[bytes]:
        return self.keys[-1] if self.keys else None

    def split(self) -> "BasementNode":
        """Split in half; returns the new right sibling."""
        mid = len(self.keys) // 2
        right = BasementNode()
        right.keys = self.keys[mid:]
        right.values = self.values[mid:]
        right.msns = self.msns[mid:]
        del self.keys[mid:]
        del self.values[mid:]
        del self.msns[mid:]
        moved = sum(
            self.pair_size(k, v) for k, v in zip(right.keys, right.values)
        )
        right.nbytes = moved
        self.nbytes -= moved
        return right

    def items(self) -> Iterable[Tuple[bytes, Value]]:
        return zip(self.keys, self.values)

    def items_with_msn(self) -> Iterable[Tuple[bytes, Value, int]]:
        return zip(self.keys, self.values, self.msns)


class Node:
    """Common node state."""

    __slots__ = ("node_id", "height", "dirty", "msn_max")

    def __init__(self, node_id: int, height: int) -> None:
        self.node_id = node_id
        self.height = height
        self.dirty = True
        #: Highest MSN applied to / buffered in this node.
        self.msn_max = 0

    @property
    def is_leaf(self) -> bool:
        return self.height == 0

    def nbytes(self) -> int:
        raise NotImplementedError


class LeafNode(Node):
    """A leaf: an ordered list of basement nodes."""

    __slots__ = ("basements", "pair_bytes")

    def __init__(
        self, node_id: int, basements: Optional[List[BasementNode]] = None
    ) -> None:
        super().__init__(node_id, height=0)
        self.basements: List[BasementNode] = basements or [BasementNode()]
        #: Sum of the basements' ``nbytes`` (an unloaded stub counts
        #: 0), kept current by the only things that change it — this
        #: constructor, :meth:`apply`, :meth:`apply_range_delete`,
        #: :meth:`split` and :meth:`replace_basement` — so the cache's
        #: per-op :meth:`nbytes` is O(1).
        self.pair_bytes = sum(b.nbytes for b in self.basements)

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        return self.pair_bytes

    def pair_count(self) -> int:
        return sum(len(b) for b in self.basements)

    def basement_index_for(self, key: bytes) -> int:
        """Index of the basement that should hold ``key``.

        Basements emptied by deletions have no first key; the search
        skips them (they are pruned lazily after batch applies).
        """
        best = 0
        for i, basement in enumerate(self.basements):
            first = basement.first_key()
            if first is None:
                continue
            if first <= key:
                best = i
            else:
                break
        return best

    def basement_span(
        self, lo: Optional[bytes], hi: Optional[bytes]
    ) -> Tuple[int, int]:
        """Indices ``[first, stop)`` of the basements that may hold a
        key of ``[lo, hi)`` (``None`` = unbounded)."""
        first = 0 if lo is None else self.basement_index_for(lo)
        if hi is None:
            return first, len(self.basements)
        stop = first + 1
        for i in range(stop, len(self.basements)):
            key = self.basements[i].first_key()
            if key is not None and key >= hi:
                break
            stop = i + 1
        return first, stop

    def prune_empty_basements(self) -> None:
        """Drop loaded-and-empty basements (keep at least one)."""
        kept = [b for b in self.basements if len(b) or not b.loaded]
        self.basements = kept or [BasementNode()]

    def replace_basement(self, idx: int, basement: BasementNode) -> None:
        """Put ``basement`` (read from disk) where the stub ``idx`` was."""
        self.pair_bytes += basement.nbytes - self.basements[idx].nbytes
        self.basements[idx] = basement

    def basement_for(self, key: bytes) -> BasementNode:
        return self.basements[self.basement_index_for(key)]

    def get(self, key: bytes) -> Tuple[bool, Optional[Value]]:
        return self.basement_for(key).get(key)

    def apply(self, msg: PointMessage, basement_size: int) -> bool:
        idx = self.basement_index_for(key=msg.key)
        basement = self.basements[idx]
        before = basement.nbytes
        applied = basement.apply(msg)
        self.pair_bytes += basement.nbytes - before
        if basement.nbytes > basement_size and len(basement) > 1:
            right = basement.split()
            self.basements.insert(idx + 1, right)
        return applied

    def apply_range_delete(self, msg: RangeDelete) -> int:
        removed = 0
        for basement in self.basements:
            if not basement.loaded:
                # Its pairs are on disk only: the delete would pass
                # them by unseen.
                raise TreeInvariantError(
                    f"range delete reached an unloaded basement: {self.node_id!r}"
                )
            removed += basement.remove_range(msg.start, msg.end, before_msn=msg.msn)
        self.prune_empty_basements()
        self.pair_bytes = sum(b.nbytes for b in self.basements)
        return removed

    def split(self, new_node_id: int) -> Tuple["LeafNode", bytes]:
        """Split this leaf in half; returns (right_sibling, pivot_key)."""
        if len(self.basements) < 2:
            right_b = self.basements[0].split()
            self.basements.append(right_b)
        mid = len(self.basements) // 2
        right = LeafNode(new_node_id, self.basements[mid:])
        del self.basements[mid:]
        self.pair_bytes -= right.pair_bytes
        right.msn_max = self.msn_max
        pivot = right.basements[0].first_key()
        require(
            pivot is not None,
            "leaf split produced an empty right half",
            TreeInvariantError,
            new_node_id,
        )
        return right, pivot

    def items(self) -> Iterable[Tuple[bytes, Value]]:
        for basement in self.basements:
            yield from basement.items()

    def first_key(self) -> Optional[bytes]:
        for basement in self.basements:
            k = basement.first_key()
            if k is not None:
                return k
        return None

    def last_key(self) -> Optional[bytes]:
        for basement in reversed(self.basements):
            k = basement.last_key()
            if k is not None:
                return k
        return None


class InternalNode(Node):
    """An internal node: pivots, child ids, and a message buffer.

    ``pivots[i]`` separates ``children[i]`` (keys < pivot) from
    ``children[i+1]`` (keys >= pivot); ``len(pivots) ==
    len(children) - 1``.

    The buffer is kept twice: once flat, in arrival order (what the
    codec writes), and once split by child (what a flush moves), so a
    flush pays for the batch it takes, not for the whole buffer.
    """

    __slots__ = (
        "pivots",
        "children",
        "pivot_bytes",
        "buffer",
        "buffer_bytes",
        "child_buffers",
        "child_bytes",
        "point_index",
        "range_msgs",
        "mem_buf",
        "_sorted_keys",
    )

    def __init__(
        self,
        node_id: int,
        height: int,
        pivots: Optional[List[bytes]] = None,
        children: Optional[List[int]] = None,
    ) -> None:
        super().__init__(node_id, height)
        self.pivots: List[bytes] = [] if pivots is None else pivots
        self.children: List[int] = [] if children is None else children
        #: Size of the pivots and child pointers, kept current by the
        #: only three things that change them — this constructor,
        #: :meth:`add_child` and :meth:`split` — so the cache's
        #: per-op :meth:`nbytes` is O(1).
        self.pivot_bytes = (
            sum(map(len, self.pivots)) + 8 * (len(self.pivots) + len(self.children))
        )
        #: Messages in arrival (MSN) order.
        self.buffer: List[Message] = []
        self.buffer_bytes = 0
        #: The buffer split by child: ``child_buffers[i]`` holds, in
        #: arrival order, the messages :meth:`Message.route` sends to
        #: ``children[i]`` (a range message sits in every child it
        #: touches), and ``child_bytes[i]`` sums their sizes.
        self.child_buffers: List[List[Message]] = [[] for _ in self.children]
        self.child_bytes: List[int] = [0] * len(self.children)
        #: key -> list of point messages for that key (query fast path,
        #: modeling TokuDB's per-buffer ordered index).
        self.point_index: dict = {}
        #: Buffered range messages (every query must consult these).
        self.range_msgs: List[RangeDelete] = []
        #: Simulated allocation backing this buffer (set by the tree).
        self.mem_buf = None
        #: Lazy sorted snapshot of point_index keys (range extraction).
        self._sorted_keys: Optional[List[bytes]] = None

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        return self.pivot_bytes + self.buffer_bytes

    def child_index_for(self, key: bytes) -> int:
        return bisect.bisect_right(self.pivots, key)

    def child_range(self, idx: int) -> Tuple[Optional[bytes], Optional[bytes]]:
        """Key range [lo, hi) routed to child ``idx`` (None = unbounded)."""
        lo = self.pivots[idx - 1] if idx > 0 else None
        hi = self.pivots[idx] if idx < len(self.pivots) else None
        return lo, hi

    def enqueue(self, msg: Message) -> None:
        """Buffer ``msg``, filed under its child(ren) and its key.  For
        a point message the partition costs one ``bisect_right``, one
        append and one add."""
        self.buffer.append(msg)
        size = msg.size
        self.buffer_bytes += size
        msn = msg.msn
        if msn > self.msn_max:
            self.msn_max = msn
        if msg.is_range:
            self.range_msgs.append(msg)
            for i in msg.route(self.pivots):
                self.child_buffers[i].append(msg)
                self.child_bytes[i] += size
            return
        key = msg.key
        i = bisect.bisect_right(self.pivots, key)
        self.child_buffers[i].append(msg)
        self.child_bytes[i] += size
        same_key = self.point_index.get(key)
        if same_key is None:
            self.point_index[key] = [msg]
            self._sorted_keys = None
        else:
            same_key.append(msg)

    def _reindex(self) -> None:
        """Rebuild everything kept beside the buffer by filing the
        buffer again (the MSN high-water mark is not the buffer's)."""
        msgs, msn_max = self.buffer, self.msn_max
        self.buffer = []
        self.buffer_bytes = 0
        self.child_buffers = [[] for _ in self.children]
        self.child_bytes = [0] * len(self.children)
        self.point_index = {}
        self.range_msgs = []
        self._sorted_keys = None
        for msg in msgs:
            self.enqueue(msg)
        self.msn_max = msn_max

    def point_keys_in_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> List[bytes]:
        """Buffered point-message keys within [lo, hi) (ordered-index
        extraction, O(log n + k) like TokuDB's OMT)."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.point_index)
        keys = self._sorted_keys
        i = bisect.bisect_left(keys, lo) if lo is not None else 0
        j = bisect.bisect_left(keys, hi) if hi is not None else len(keys)
        return keys[i:j]

    def set_buffer(self, msgs: List[Message]) -> None:
        self.buffer = msgs
        self._reindex()

    def remove_messages(self, doomed: List[Message], release: bool = True) -> None:
        """Take ``doomed`` (buffered messages) out of the buffer.

        What stays keeps its place: in the flat buffer, in each child's
        partition and under each key, the order stands as
        :meth:`_reindex` would build it.  Only the batch and the
        partitions and keys it leaves are walked message by message
        (for a flush: one partition, emptied); the flat buffer is
        refiltered in one comprehension and the other partitions are
        passed over by ``isdisjoint``.
        """
        gone = set(doomed)  # messages hash by identity
        self.buffer = [m for m in self.buffer if m not in gone]
        self.buffer_bytes -= sum([m.size for m in doomed])
        parts = self.child_buffers
        for i, part in enumerate(parts):
            if not gone.isdisjoint(part):
                left = [m for m in part if m not in gone]
                parts[i] = left
                self.child_bytes[i] = sum([m.size for m in left])
        index = self.point_index
        for key in {m.key for m in doomed if not m.is_range}:
            same_key = index[key]
            if gone.issuperset(same_key):
                del index[key]
                self._sorted_keys = None
            else:
                index[key] = [m for m in same_key if m not in gone]
        if self.range_msgs and not gone.isdisjoint(self.range_msgs):
            self.range_msgs = [r for r in self.range_msgs if r not in gone]
        if release:
            for m in doomed:
                release_message(m)

    def pending_for_key(self, key: bytes) -> List[Message]:
        """Buffered messages affecting ``key`` (point + covering ranges)."""
        out: List[Message] = list(self.point_index.get(key, ()))
        for rng in self.range_msgs:
            if rng.covers_key(key):
                out.append(rng)
        return out

    def messages_for_child(self, idx: int) -> List[Message]:
        """The messages buffered for child ``idx``, in arrival order."""
        return list(self.child_buffers[idx])

    def fattest_child(self) -> int:
        """Child with the most pending buffered bytes (first on a tie)."""
        return self.child_bytes.index(max(self.child_bytes))

    def add_child(self, pivot: bytes, child_id: int, after_idx: int) -> None:
        """Insert a new child to the right of ``after_idx``, which
        ``pivot`` splits: its buffered messages go to the side(s) they
        touch."""
        self.pivots.insert(after_idx, pivot)
        self.children.insert(after_idx + 1, child_id)
        self.pivot_bytes += len(pivot) + 16
        part = self.child_buffers[after_idx]
        left = [m for m in part if m.touches(None, pivot)]
        right = [m for m in part if m.touches(pivot, None)]
        self.child_buffers[after_idx : after_idx + 1] = [left, right]
        self.child_bytes[after_idx : after_idx + 1] = [
            sum(m.size for m in left),
            sum(m.size for m in right),
        ]

    def split(self, new_node_id: int) -> Tuple["InternalNode", bytes]:
        """Split in half; returns (right_sibling, pivot)."""
        mid = len(self.children) // 2
        pivot = self.pivots[mid - 1]
        right = InternalNode(
            new_node_id, self.height, self.pivots[mid:], self.children[mid:]
        )
        del self.pivots[mid - 1 :]
        del self.children[mid:]
        # The promoted pivot leaves both halves.
        self.pivot_bytes -= right.pivot_bytes + len(pivot) + 8
        # Partition buffered messages.  Range messages spanning the
        # pivot are duplicated with clipped ranges.
        halves = [msg.split_at(pivot) for msg in self.buffer]
        self.set_buffer([lt for lt, _ in halves if lt is not None])
        right.set_buffer([rt for _, rt in halves if rt is not None])
        right.msn_max = self.msn_max
        return right, pivot
