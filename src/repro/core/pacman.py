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
"""

from __future__ import annotations

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
    the number of message-pair checks performed (the CPU cost the
    caller must charge to the simulated clock).

    ``messages`` must be in MSN (arrival) order; the result preserves
    that order for the surviving messages.
    """
    stats.runs += 1
    n = len(messages)
    range_idxs = [i for i, m in enumerate(messages) if m.is_range]
    if not range_idxs:
        return messages, 0

    comparisons = 0
    dead = [False] * n
    # Newest range messages first (paper: "PacMan will consider a
    # directory's range delete message before ... its children").
    for ri in reversed(range_idxs):
        if dead[ri]:
            continue
        rng = messages[ri]
        merged_start, merged_end = rng.start, rng.end
        for j in range(n):
            if j == ri or dead[j]:
                continue
            other = messages[j]
            comparisons += 1
            if other.msn > rng.msn:
                # Newer than the range delete: cannot be gobbled.
                continue
            if other.within(merged_start, merged_end):
                dead[j] = True
                if other.is_range:
                    stats.dropped_ranges += 1
                else:
                    stats.dropped_points += 1
            elif other.touches(merged_start, merged_end):
                # An overlapping older range delete: safe to merge only
                # if nothing newer than `other` but older than `rng`
                # targets the region `other` covers alone.  Check it.
                comparisons += _count_between(messages, other, rng)
                if not _intervening(messages, other, rng, dead):
                    merged_start = min(merged_start, other.start)
                    merged_end = max(merged_end, other.end)
                    dead[j] = True
                    stats.merged_ranges += 1
        if merged_start != rng.start or merged_end != rng.end:
            messages[ri] = RangeDelete(merged_start, merged_end, rng.msn)

    kept: List[Message] = []
    for i, msg in enumerate(messages):
        if dead[i]:
            release_message(msg)
        else:
            kept.append(msg)
    stats.comparisons += comparisons
    return kept, comparisons


def _count_between(messages: List[Message], older: Message, newer: Message) -> int:
    """Number of messages with MSN strictly between two messages."""
    return sum(1 for m in messages if older.msn < m.msn < newer.msn)


def _intervening(
    messages: List[Message],
    older: RangeDelete,
    newer: RangeDelete,
    dead: List[bool],
) -> bool:
    """True if some live message between ``older`` and ``newer`` (by
    MSN) targets the part of ``older``'s range not covered by
    ``newer`` — in which case the two range deletes must not merge."""
    for i, m in enumerate(messages):
        if dead[i] or not (older.msn < m.msn < newer.msn):
            continue
        part = m.clip(older.start, older.end)
        if part is not None and not part.within(newer.start, newer.end):
            return True
    return False
