"""Bounded enumeration of crash plans for one barrier epoch.

Follows the B3 bounded-black-box approach (CrashMonkey, OSDI '18):
crash states worth exploring are combinations of *which* unflushed
commands persisted, and the space is covered systematically up to a
bound, then sampled.  For an epoch of ``n`` at-risk records we emit:

* the **empty** plan (the whole epoch was lost) and every **prefix**
  (in-order cache drain interrupted part-way) — these are the states
  an ordered-drain cache produces and the most common in practice;
* when ``n <= exhaustive_k``, **every subset** — small epochs are
  covered completely;
* otherwise a seeded **random sample** of subsets — large epochs are
  covered probabilistically but reproducibly (the RNG is an explicit
  ``random.Random``; the purity lint forbids ambient randomness);
* **torn-write variants**: for plans whose last selected record is a
  multi-sector write, a copy with only the first sector and a copy
  with the first half of the sectors persisted.

Plans are deduplicated by :meth:`CrashPlan.key` and returned in a
deterministic order, so the same records + the same seed always yield
the same schedule list.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.device.block import CacheRecord
from repro.crashmc.plan import CrashPlan

#: Epochs at or below this many records are explored exhaustively
#: (2^k subsets); beyond it we sample.  k=6 keeps the exhaustive leg
#: at <= 64 subsets per epoch.
DEFAULT_EXHAUSTIVE_K = 6

#: Subsets sampled per epoch beyond the exhaustive bound.
DEFAULT_SAMPLES = 24


def _tear_variants(
    plan: CrashPlan, records: Sequence[CacheRecord], sector: int
) -> List[CrashPlan]:
    """Torn copies of ``plan`` if its last selected record is a
    multi-sector write (a single-sector write cannot tear: the sector
    program is the atomic unit)."""
    if not plan.selected:
        return []
    chosen = set(plan.selected)
    last_write = None
    for rec in reversed(records):
        if rec.seq in chosen and rec.kind == CacheRecord.WRITE:
            last_write = rec
            break
    if last_write is None:
        return []
    sectors = (last_write.length + sector - 1) // sector
    if sectors < 2:
        return []
    cuts = {1, sectors // 2}
    return [
        CrashPlan(
            selected=plan.selected,
            epoch=plan.epoch,
            torn_tail_sectors=cut,
            kind="torn",
        )
        for cut in sorted(cuts)
    ]


def enumerate_plans(
    records: Sequence[CacheRecord],
    *,
    epoch: Optional[int],
    sector: int,
    rng: random.Random,
    exhaustive_k: int = DEFAULT_EXHAUSTIVE_K,
    samples: int = DEFAULT_SAMPLES,
    max_plans: Optional[int] = None,
) -> List[CrashPlan]:
    """All crash plans to run against one barrier epoch.

    ``records`` are the epoch's at-risk commands; ``epoch`` is the
    sealed-epoch index (``None`` = the open epoch) stamped into every
    plan; ``sector`` is the device sector size for tearing.
    """
    seqs = tuple(rec.seq for rec in records)
    n = len(seqs)
    plans: List[CrashPlan] = []
    seen = set()

    def emit(plan: CrashPlan) -> None:
        key = plan.key()
        if key in seen:
            return
        seen.add(key)
        plans.append(plan)

    # Empty + every prefix: the ordered-drain states.
    emit(CrashPlan(selected=(), epoch=epoch, kind="prefix"))
    for cut in range(1, n + 1):
        emit(CrashPlan(selected=seqs[:cut], epoch=epoch, kind="prefix"))

    if n and n <= exhaustive_k:
        # Exhaustive: every subset of the epoch.
        for size in range(1, n):
            for combo in itertools.combinations(seqs, size):
                emit(CrashPlan(selected=combo, epoch=epoch, kind="subset"))
    elif n:
        # Sampled: reproducible draws from the 2^n space.
        for _ in range(samples):
            combo = tuple(s for s in seqs if rng.random() < 0.5)
            emit(CrashPlan(selected=combo, epoch=epoch, kind="sampled"))

    # Torn-write variants of everything emitted so far.
    for plan in list(plans):
        for torn in _tear_variants(plan, records, sector):
            emit(torn)

    if max_plans is not None and len(plans) > max_plans:
        del plans[max_plans:]
    return plans


def media_plans(
    regions: Iterable[Tuple[int, int]],
    *,
    sector: int,
    rng: random.Random,
    count: int,
) -> List[CrashPlan]:
    """Post-crash media-fault plans: alternate single-byte bit-flips and
    latent sector errors at seeded-random offsets inside ``regions``
    (``(base, size)`` byte spans).
    """
    spans = [(base, size) for base, size in regions if size > 0]
    if not spans or count <= 0:
        return []
    plans: List[CrashPlan] = []
    seen = set()
    draws = 0
    while len(plans) < count and draws < count * 10:
        base, size = spans[draws % len(spans)]
        offset = base + rng.randrange(size)
        if draws % 2 == 0:
            mask = 1 << rng.randrange(8)
            plan = CrashPlan(bitflips=((offset, mask),), kind="media")
        else:
            plan = CrashPlan(bad_sectors=(offset // sector,), kind="media")
        draws += 1
        if plan.key() in seen:
            continue
        seen.add(plan.key())
        plans.append(plan)
    return plans
