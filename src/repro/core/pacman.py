"""The PacMan range-message compaction (paper §2.2, §4).

When a node's buffer is flushed, PacMan walks the buffered range
messages by *recency* (newest first) and lets each range delete "gobble"
older messages that are entirely contained in its range:

* an older point message whose key lies inside the range is dropped;
* an older range delete fully covered by the range is dropped;
* two overlapping range deletes are merged when no in-between message
  targets the part of the union not covered by both.

The algorithm is quadratic in the number of buffered messages — it
compares every range message against every other message — and the
paper shows that on a recursive deletion the baseline produces only
*adjacent-but-not-overlapping* ranges, so all that CPU is burned for
nothing.  The §4 fix (directory-wide range deletes, issued last) gives
PacMan a covering message so the gobbling actually happens.

The simulated clock pays for every one of those comparisons; the host
only counts them, and finds what dies through a key-sorted index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.messages import Message, RangeDelete, release_message


@dataclass
class PacmanStats:
    """Counters for PacMan behaviour (exposed for the §4 analysis)."""

    runs: int = 0
    comparisons: int = 0
    dropped_points: int = 0
    dropped_ranges: int = 0
    merged_ranges: int = 0


def compact(
    messages: List[Message], stats: PacmanStats
) -> Tuple[List[Message], int]:
    """Compact a buffer's message list in place of a flush.

    Returns ``(kept_messages, comparisons)`` where ``comparisons`` is
    the number of message-pair checks the quadratic algorithm performs
    (the CPU cost the caller must charge to the simulated clock).

    ``messages`` is a buffer partition in arrival (MSN) order; the
    result keeps that order for the surviving messages.  The list
    itself is not changed: a merged range delete is a new message in
    the result.
    """
    stats.runs += 1
    ranges = [i for i, m in enumerate(messages) if m.is_range]
    if not ranges:
        return messages, 0
    sweep = _Sweep(messages, ranges, stats)
    # Newest range messages first (paper: "PacMan will consider a
    # directory's range delete message before ... its children").
    for ri in reversed(sweep.ranges):
        if not sweep.dead[ri]:
            sweep.run(ri)
    kept: List[Message] = []
    for msg, dead in zip(sweep.messages, sweep.dead):
        if dead:
            release_message(msg)
        else:
            kept.append(msg)
    stats.comparisons += sweep.comparisons
    return kept, sweep.comparisons


#: ``(index, start, end)``: a sweep's range after a merge at ``index``.
_Bounds = Tuple[int, bytes, bytes]


class _Sweep:
    """The quadratic algorithm's outcome and count, without its work.

    Each live range delete, newest first, sweeps the list by index:
    every other live message is one comparison; an older message inside
    the range (as it stands when the sweep reaches it) dies; an older
    range delete that only overlaps it is a merge attempt, which also
    compares every message whose MSN lies between the two.  Here a
    sweep takes the range deletes (few) in index order first, recording
    the range after each merge, and then finds the older point
    messages inside the range through a key-sorted index: a point dies
    if its key lies in the range as it stood at the point's index.
    """

    def __init__(
        self, messages: List[Message], ranges: List[int], stats: PacmanStats
    ) -> None:
        self.messages = list(messages)
        self.ranges = ranges
        self.stats = stats
        self.dead = [False] * len(messages)
        self.live = len(messages)
        self.comparisons = 0
        self.msns = sorted([m.msn for m in messages])
        points = sorted([(m.key, i) for i, m in enumerate(messages) if not m.is_range])
        self.keys = [key for key, _ in points]
        self.at = [i for _, i in points]

    def run(self, ri: int) -> None:
        """Sweep the live range delete at index ``ri``."""
        messages, dead, stats = self.messages, self.dead, self.stats
        rng = messages[ri]
        msn = rng.msn
        self.comparisons += self.live - 1
        start, end = rng.start, rng.end
        grown: List[_Bounds] = [(-1, start, end)]
        for j in self.ranges:
            other = messages[j]
            # A newer message cannot be gobbled; a disjoint one is left.
            if j == ri or dead[j] or other.msn > msn or not other.touches(start, end):
                continue
            if other.within(start, end):
                self._kill(j)
                stats.dropped_ranges += 1
            else:
                # An overlapping older range delete: safe to merge only
                # if nothing newer than `other` but older than `rng`
                # targets the region `other` covers alone.  Check it.
                self.comparisons += max(
                    0, bisect_left(self.msns, msn) - bisect_right(self.msns, other.msn)
                )
                if not self._intervening(other, rng, j, grown):
                    start, end = min(start, other.start), max(end, other.end)
                    grown.append((j, start, end))
                    self._kill(j)
                    stats.merged_ranges += 1
        keys, at = self.keys, self.at
        for t in range(bisect_left(keys, start), bisect_left(keys, end)):
            p = at[t]
            if dead[p] or messages[p].msn > msn:
                continue
            if len(grown) > 1 and not _inside(keys[t], p, grown):
                continue
            self._kill(p)
            stats.dropped_points += 1
        if len(grown) > 1:
            messages[ri] = RangeDelete(start, end, msn)

    def _kill(self, i: int) -> None:
        self.dead[i] = True
        self.live -= 1

    def _intervening(
        self, older: RangeDelete, newer: RangeDelete, at: int, grown: List[_Bounds]
    ) -> bool:
        """True if some message live when ``newer``'s sweep reaches
        index ``at``, between ``older`` and ``newer`` by MSN, targets
        the part of ``older``'s range not covered by ``newer`` — in
        which case the two range deletes must not merge.  A point before
        ``at`` inside the sweep's range then is already gobbled."""
        messages, dead = self.messages, self.dead
        for i in self.ranges:
            m = messages[i]
            if not dead[i] and older.msn < m.msn < newer.msn:
                part = m.clip(older.start, older.end)
                if part is not None and not part.within(newer.start, newer.end):
                    return True
        # The point keys of older's range that newer's leaves out.
        for lo, hi in (
            (older.start, min(older.end, newer.start)),
            (max(older.start, newer.end), older.end),
        ):
            if lo >= hi:
                continue
            for t in range(bisect_left(self.keys, lo), bisect_left(self.keys, hi)):
                p = self.at[t]
                if dead[p] or not older.msn < messages[p].msn < newer.msn:
                    continue
                if p < at and _inside(self.keys[t], p, grown):
                    continue
                return True
        return False


def _inside(key: bytes, index: int, grown: List[_Bounds]) -> bool:
    """True if ``key`` lies in the sweep's range as it stood when the
    sweep reached ``index`` (after every merge at a smaller index)."""
    _, start, end = grown[bisect_left(grown, (index,)) - 1]
    return start <= key < end
