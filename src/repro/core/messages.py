"""Message types for the B-epsilon-tree.

Messages are serializable objects that logically describe an operation
on one or more key-value pairs (paper §2.1).  Each message carries a
Message Sequence Number (MSN); applying messages to a key in MSN order
reconstructs the key's latest value.

Point messages:

* :class:`Insert` — set ``key`` to ``value`` (blind write).
* :class:`InsertByRef` — §6: set ``key`` to the contents of a page
  frame, passed through the tree *by reference* (zero copy).
* :class:`Delete` — remove ``key``.
* :class:`Patch` — blind sub-block update: overwrite ``len(data)``
  bytes at ``offset`` within the value (this is how 4-byte random
  writes avoid read-modify-write).

Range messages:

* :class:`RangeDelete` — remove every key in ``[start, end)``.

This module is the only owner of what a message *does*: the value
transition (:meth:`Message.transition`), which keys it touches
(``affects`` / ``touches`` / ``within``), how it divides (``clip`` /
``split_at`` / ``route``) and the page frame it carries.  Nodes, the
tree, PacMan and the checkers only call these (DESIGN.md, "Message
semantics", has the kind-by-kind table).
"""

from __future__ import annotations

import bisect
import itertools
from typing import List, Optional, Tuple, Union

from repro.core.keys import in_range

_frame_ids = itertools.count(1)


class PageFrame:
    """A 4 KiB (or smaller) page of file data, shareable by reference.

    One frame may simultaneously be referenced by the VFS page cache
    and by messages/basement entries inside the B-epsilon-tree (§6).
    Frames are copy-on-write: once ``sealed`` (referenced by the tree),
    the VFS must allocate a new frame to accept an overwrite.

    ``data`` is immutable ``bytes``, and the same object may also be a
    segment of a node image in the device store (a node write passes
    it by reference, a cold read decodes it back as that segment).  So
    ``data`` is *rebound* to new bytes, never edited in place: by the
    CoW fault and :meth:`~repro.vfs.pagecache.PageCache.write` (new
    bytes built from the old) and by the blind-patch branch of
    :meth:`~repro.vfs.vfs.VFS.write`.  Nothing written after a node
    write can reach the bytes the device holds.
    """

    __slots__ = ("frame_id", "data", "refs", "sealed")

    def __init__(self, data: bytes) -> None:
        self.frame_id = next(_frame_ids)
        self.data = data
        self.refs = 1
        self.sealed = False

    def __len__(self) -> int:
        return len(self.data)

    def get(self) -> int:
        """Take a reference (returns new count)."""
        self.refs += 1
        return self.refs

    def put(self) -> int:
        """Drop a reference (returns new count)."""
        self.refs -= 1
        if self.refs <= 0:
            self.sealed = False
        return self.refs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageFrame(#{self.frame_id} {len(self.data)}B refs={self.refs})"


#: Values stored in the tree are either raw bytes (metadata, small
#: values) or page frames (file data blocks).
Value = Union[bytes, PageFrame]


def value_bytes(value: Value) -> bytes:
    """Materialize a value as bytes (dereferences page frames)."""
    if isinstance(value, PageFrame):
        return value.data
    return value


def value_len(value: Optional[Value]) -> int:
    if value is None:
        return 0
    return len(value)


#: What a leaf (or a query's view of one) holds for a key: the value
#: and the MSN of the message that wrote it; ``None`` = key absent.
Pair = Optional[Tuple[Value, int]]


class Message:
    """Base class for all messages."""

    __slots__ = ("msn", "size")
    kind = "?"
    is_range = False
    #: True if :meth:`apply_to` ignores the old value.  A blind write
    #: may reach a leaf ahead of older messages still buffered above it
    #: (they are stale against its pair); a read-modify-write may not.
    blind = True

    def __init__(self, msn: int = 0) -> None:
        self.msn = msn
        #: :meth:`measure` as of construction.  Nothing a message holds
        #: changes length afterwards (a by-ref frame is sealed while the
        #: message references it), so the buffers that re-ask a message
        #: its size on every enqueue, flush and eviction read this.
        #: Each kind's constructor sets its own fields first.
        self.size = self.measure()

    def nbytes(self) -> int:
        """Approximate in-memory/serialized size of this message."""
        return self.size

    def measure(self) -> int:
        """:attr:`size` recounted from the fields (the sanitizer's
        oracle; everything else reads the kept value)."""
        raise NotImplementedError

    # -- what the message does to one key it affects -------------------
    def apply_to(self, old: Optional[Value]) -> Optional[Value]:
        """The value this message leaves where ``old`` was (``None`` on
        either side = no pair).  Pure: takes no frame reference."""
        raise NotImplementedError

    def is_stale(self, pair: Pair) -> bool:
        """The one MSN rule: a message at or below the MSN of the pair
        it targets is a no-op — the pair was written by a newer message
        that moved down early (apply-on-query), or by this one."""
        return pair is not None and self.msn <= pair[1]

    def transition(self, pair: Pair) -> Pair:
        """``pair`` after this message.  Folding a key's messages over
        its pair in MSN order reconstructs its value (§2.1); flush-to-
        leaf, point query and range scan are three callers of this."""
        if self.is_stale(pair):
            return pair
        value = self.apply_to(None if pair is None else pair[0])
        return None if value is None else (value, self.msn)

    # -- which keys the message touches (``None`` bound = unbounded) ---
    def affects(self, key: bytes) -> bool:
        """True if applying this message can change ``key``."""
        raise NotImplementedError

    def touches(self, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
        """True if some key this message affects lies in ``[lo, hi)``."""
        raise NotImplementedError

    def within(self, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
        """True if every key this message affects lies in ``[lo, hi)``."""
        raise NotImplementedError

    def route(self, pivots: List[bytes]) -> range:
        """Indices of the children of ``pivots`` this message touches."""
        raise NotImplementedError

    def clip(
        self, lo: Optional[bytes], hi: Optional[bytes]
    ) -> Optional["Message"]:
        """The part of this message that lies within ``[lo, hi)``:
        itself, ``None``, or a narrower copy with the same MSN."""
        raise NotImplementedError

    def split_at(
        self, pivot: bytes
    ) -> Tuple[Optional["Message"], Optional["Message"]]:
        """``(left, right)``: the parts below and at-or-above ``pivot``
        (one is ``None`` unless the message straddles it)."""
        return self.clip(None, pivot), self.clip(pivot, None)

    # -- the page frame it carries (§6) --------------------------------
    def carried_frame(self) -> Optional[PageFrame]:
        """The page frame that moves down the tree with this message
        instead of being copied, if any."""
        return None

    def retain(self) -> None:
        """Take, for whoever stores the value, one more of the counted
        frame references this message holds (none unless by-ref)."""

    def release(self) -> None:
        """Drop the counted frame reference this message holds."""


class PointMessage(Message):
    """A message that targets exactly one key."""

    __slots__ = ("key",)

    def __init__(self, key: bytes, msn: int = 0) -> None:
        self.key = key
        super().__init__(msn)

    #: Fixed per-message header overhead (type, MSN, lengths).
    HEADER = 16

    def measure(self) -> int:
        return self.HEADER + len(self.key)

    def affects(self, key: bytes) -> bool:
        return key == self.key

    def touches(self, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
        return in_range(self.key, lo, hi)

    within = touches

    def route(self, pivots: List[bytes]) -> range:
        idx = bisect.bisect_right(pivots, self.key)
        return range(idx, idx + 1)

    def clip(
        self, lo: Optional[bytes], hi: Optional[bytes]
    ) -> Optional[Message]:
        return self if in_range(self.key, lo, hi) else None


class Insert(PointMessage):
    """Blind write of a full value."""

    __slots__ = ("value",)
    kind = "insert"

    def __init__(self, key: bytes, value: Value, msn: int = 0) -> None:
        self.value = value
        super().__init__(key, msn)

    def measure(self) -> int:
        return self.HEADER + len(self.key) + value_len(self.value)

    def apply_to(self, old: Optional[Value]) -> Optional[Value]:
        return self.value

    def carried_frame(self) -> Optional[PageFrame]:
        return self.value if isinstance(self.value, PageFrame) else None

    # A page value is the message's own copy (a copying-mode insert, or
    # one decoded from a node buffer): the message holds its reference.
    def retain(self) -> None:
        if isinstance(self.value, PageFrame):
            self.value.get()

    def release(self) -> None:
        if isinstance(self.value, PageFrame):
            self.value.put()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Insert({self.key!r}, {value_len(self.value)}B, msn={self.msn})"


class InsertByRef(PointMessage):
    """Zero-copy insert of a page frame (paper §6, insertByRef).

    The frame travels down the tree by reference; its bytes are
    copied only when the node is finally serialized.
    """

    __slots__ = ("frame",)
    kind = "insert_by_ref"

    def __init__(self, key: bytes, frame: PageFrame, msn: int = 0) -> None:
        self.frame = frame
        frame.get()
        frame.sealed = True
        super().__init__(key, msn)

    @property
    def value(self) -> PageFrame:
        return self.frame

    def measure(self) -> int:
        # The frame itself is not copied into the buffer; only the key
        # and the reference are.  For *on-disk* sizing the frame bytes
        # count (see serialize.py); buffer memory accounting counts the
        # data too because the frame is pinned while referenced.
        return self.HEADER + len(self.key) + len(self.frame)

    def apply_to(self, old: Optional[Value]) -> Optional[Value]:
        return self.frame

    def carried_frame(self) -> Optional[PageFrame]:
        return self.frame

    def retain(self) -> None:
        self.frame.get()

    def release(self) -> None:
        self.frame.put()

    def __repr__(self) -> str:  # pragma: no cover
        return f"InsertByRef({self.key!r}, frame#{self.frame.frame_id}, msn={self.msn})"


class Delete(PointMessage):
    """Remove one key."""

    __slots__ = ()
    kind = "delete"

    def apply_to(self, old: Optional[Value]) -> Optional[Value]:
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Delete({self.key!r}, msn={self.msn})"


class Patch(PointMessage):
    """Blind sub-value update: write ``data`` at ``offset`` in the value.

    Applying a patch to a missing value materializes a zero-filled
    value of length ``offset + len(data)`` first (block writes into
    sparse files behave this way).
    """

    __slots__ = ("offset", "data")
    kind = "patch"
    blind = False

    def __init__(self, key: bytes, offset: int, data: bytes, msn: int = 0) -> None:
        self.offset = offset
        self.data = data
        super().__init__(key, msn)

    def measure(self) -> int:
        return self.HEADER + len(self.key) + 4 + len(self.data)

    def apply_to(self, old: Optional[Value]) -> bytes:
        base = value_bytes(old) if old is not None else b""
        end = self.offset + len(self.data)
        if len(base) < end:
            base = base + b"\x00" * (end - len(base))
        return base[: self.offset] + self.data + base[end:]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Patch({self.key!r}, off={self.offset}, {len(self.data)}B, msn={self.msn})"


class RangeDelete(Message):
    """Remove every key in the half-open range [start, end)."""

    __slots__ = ("start", "end")
    kind = "range_delete"
    is_range = True

    HEADER = 16

    def __init__(self, start: bytes, end: bytes, msn: int = 0) -> None:
        if start >= end:
            raise ValueError("empty range delete")
        self.start = start
        self.end = end
        super().__init__(msn)

    def measure(self) -> int:
        return self.HEADER + len(self.start) + len(self.end)

    def apply_to(self, old: Optional[Value]) -> Optional[Value]:
        return None

    def affects(self, key: bytes) -> bool:
        return self.start <= key < self.end

    def touches(self, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
        return (hi is None or self.start < hi) and (lo is None or lo < self.end)

    def within(self, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
        return (lo is None or lo <= self.start) and (hi is None or self.end <= hi)

    covers_key = affects
    overlaps = touches

    def covers_range(self, start: bytes, end: bytes) -> bool:
        """True if every key of ``[start, end)`` is deleted by this."""
        return self.start <= start and end <= self.end

    def route(self, pivots: List[bytes]) -> range:
        return range(
            bisect.bisect_right(pivots, self.start),
            bisect.bisect_left(pivots, self.end) + 1,
        )

    def clip(
        self, lo: Optional[bytes], hi: Optional[bytes]
    ) -> Optional[Message]:
        if self.within(lo, hi):
            return self
        if not self.touches(lo, hi):
            return None
        return RangeDelete(
            self.start if lo is None else max(lo, self.start),
            self.end if hi is None else min(hi, self.end),
            self.msn,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RangeDelete([{self.start!r}, {self.end!r}), msn={self.msn})"


def release_message(msg: Message) -> None:
    """Drop any page-frame reference held by a message."""
    msg.release()
