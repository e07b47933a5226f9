"""Unit tests for the PacMan range-message compaction (§4)."""

from dataclasses import asdict
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Delete, Insert, Message, Patch, RangeDelete, release_message
from repro.core.pacman import PacmanStats, compact


def run(messages):
    stats = PacmanStats()
    kept, comparisons = compact(list(messages), stats)
    return kept, comparisons, stats


class TestGobbling:
    def test_range_delete_eats_older_point_messages(self):
        msgs = [
            Insert(b"/d/a", b"1", msn=1),
            Insert(b"/d/b", b"2", msn=2),
            RangeDelete(b"/d/", b"/d0", msn=3),
        ]
        kept, _, stats = run(msgs)
        assert kept == [msgs[2]]
        assert stats.dropped_points == 2

    def test_newer_point_messages_survive(self):
        msgs = [
            RangeDelete(b"/d/", b"/d0", msn=1),
            Insert(b"/d/a", b"fresh", msn=2),
        ]
        kept, _, _ = run(msgs)
        assert len(kept) == 2

    def test_covered_range_delete_is_dropped(self):
        msgs = [
            RangeDelete(b"/d/x/", b"/d/x0", msn=1),
            RangeDelete(b"/d/", b"/d0", msn=2),
        ]
        kept, _, stats = run(msgs)
        assert kept == [msgs[1]]
        assert stats.dropped_ranges == 1

    def test_directory_wide_delete_gobbles_children(self):
        """The §4 scenario: per-file range deletes + a final directory
        range delete issued last."""
        msgs = [
            RangeDelete(b"/d/f1\x00", b"/d/f1\x01", msn=1),
            RangeDelete(b"/d/f2\x00", b"/d/f2\x01", msn=2),
            RangeDelete(b"/d/f3\x00", b"/d/f3\x01", msn=3),
            RangeDelete(b"/d/", b"/d0", msn=4),  # rmdir's coalescer
        ]
        kept, _, stats = run(msgs)
        assert kept == [msgs[3]]
        assert stats.dropped_ranges == 3


class TestPathology:
    def test_adjacent_non_overlapping_ranges_burn_cpu_for_nothing(self):
        """The rm -rf pathology: nothing is gobbled, comparisons are
        quadratic-ish anyway."""
        msgs = [
            RangeDelete(b"/d/f%03d\x00" % i, b"/d/f%03d\x01" % i, msn=i + 1)
            for i in range(20)
        ]
        kept, comparisons, stats = run(msgs)
        assert len(kept) == 20
        assert stats.dropped_ranges == 0
        assert comparisons >= 20 * 19  # every range vs every other msg

    def test_no_ranges_means_no_comparisons(self):
        msgs = [Insert(b"k%d" % i, b"v", msn=i + 1) for i in range(10)]
        kept, comparisons, _ = run(msgs)
        assert kept == msgs
        assert comparisons == 0


class TestMergeSafety:
    def test_overlapping_ranges_merge_when_safe(self):
        msgs = [
            RangeDelete(b"a", b"m", msn=1),
            RangeDelete(b"h", b"z", msn=2),
        ]
        kept, _, stats = run(msgs)
        assert len(kept) == 1
        assert kept[0].start == b"a" and kept[0].end == b"z"
        assert stats.merged_ranges == 1

    def test_no_merge_when_intervening_insert(self):
        """An insert between the two overlapping deletes targets the
        region only the older delete covers: merging would delete it."""
        msgs = [
            RangeDelete(b"a", b"m", msn=1),
            Insert(b"b", b"survivor", msn=2),
            RangeDelete(b"h", b"z", msn=3),
        ]
        kept, _, _ = run(msgs)
        # The insert must survive and the old range delete must remain
        # (un-merged), otherwise replaying would kill the insert.
        kinds = [m.kind for m in kept]
        assert "insert" in kinds
        starts = sorted(m.start for m in kept if m.is_range)
        assert starts == [b"a", b"h"]

    def test_merge_allowed_when_intervening_msg_fully_covered_by_newer(self):
        msgs = [
            RangeDelete(b"a", b"m", msn=1),
            Insert(b"j", b"doomed", msn=2),  # inside [h, z) of the newer
            RangeDelete(b"h", b"z", msn=3),
        ]
        kept, _, _ = run(msgs)
        # The insert is gobbled by the newer delete; ranges may merge.
        assert all(m.kind != "insert" for m in kept)


class TestOrderPreservation:
    def test_survivors_keep_msn_order(self):
        msgs = [
            Insert(b"x", b"1", msn=1),
            RangeDelete(b"a", b"c", msn=2),
            Insert(b"y", b"2", msn=3),
            Delete(b"z", msn=4),
        ]
        kept, _, _ = run(msgs)
        msns = [m.msn for m in kept]
        assert msns == sorted(msns)


# ----------------------------------------------------------------------
# Differential: ``compact`` counts the quadratic algorithm's comparisons
# instead of performing them.  The algorithm itself, as it was written
# when it did the work, is the oracle: same survivors (identity and
# order), same merged bounds, same comparison count, same stats.
# ----------------------------------------------------------------------
def oracle_compact(
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
                comparisons += _oracle_count_between(messages, other, rng)
                if not _oracle_intervening(messages, other, rng, dead):
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


def _oracle_count_between(messages: List[Message], older: Message, newer: Message) -> int:
    """Number of messages with MSN strictly between two messages."""
    return sum(1 for m in messages if older.msn < m.msn < newer.msn)


def _oracle_intervening(
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


def _key(x: int) -> bytes:
    return b"k%02d" % x


def _message(kind: str, x: int, y: int, msn: int) -> Message:
    if kind == "insert":
        return Insert(_key(x), b"v" * y, msn)
    if kind == "delete":
        return Delete(_key(x), msn)
    if kind == "patch":
        return Patch(_key(x), y % 4, b"P", msn)
    lo, hi = sorted((x, y))
    return RangeDelete(_key(lo), _key(hi + 1), msn)


# Few keys and mostly range deletes: ranges overlap densely, so gobbles,
# merges and intervening-message vetoes are all common.  MSNs rise in
# arrival order with ties (the clipped parts of one range delete share
# its MSN), and now and then fall: the count must not lean on the order.
buffers = st.lists(
    st.tuples(
        st.sampled_from(["range_delete"] * 4 + ["insert", "delete", "patch"]),
        st.integers(0, 12),
        st.integers(0, 12),
        st.sampled_from([0, 1, 1, 1, 1, 2, -4]),
    ),
    max_size=40,
)


@settings(max_examples=400, deadline=None)
@given(buffers)
def test_compact_matches_the_quadratic_algorithm(spec):
    messages: List[Message] = []
    msn = 0
    for kind, x, y, step in spec:
        msn += step
        messages.append(_message(kind, x, y, msn))
    given_list = list(messages)
    want_stats, got_stats = PacmanStats(), PacmanStats()
    want, want_cmp = oracle_compact(list(messages), want_stats)
    got, got_cmp = compact(messages, got_stats)
    assert messages == given_list  # the input list is left as it was
    assert got_cmp == want_cmp
    assert asdict(got_stats) == asdict(want_stats)
    assert len(got) == len(want)
    originals = {id(m) for m in given_list}
    for g, w in zip(got, want):
        if id(w) in originals:
            assert g is w
        else:  # a merged range delete: a new message either way
            assert id(g) not in originals
            assert (g.start, g.end, g.msn) == (w.start, w.end, w.msn)


def test_a_point_gobbled_earlier_in_the_sweep_does_not_veto_a_merge():
    """The sweep of [k03, k05) first merges [k00, k05), which gobbles
    the insert at k02; the insert, dead by then, no longer stands
    between [k02, k06) and the sweep, so that merges too."""
    msgs = [
        RangeDelete(b"k00", b"k05", msn=4),
        RangeDelete(b"k03", b"k05", msn=4),
        Insert(b"k02", b"", msn=3),
        RangeDelete(b"k02", b"k06", msn=2),
    ]
    want_stats = PacmanStats()
    _, want_cmp = oracle_compact(list(msgs), want_stats)
    kept, comparisons, stats = run(msgs)
    assert (comparisons, asdict(stats)) == (want_cmp, asdict(want_stats))
    assert [(m.start, m.end, m.msn) for m in kept] == [(b"k00", b"k06", 4)]
