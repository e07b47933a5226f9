"""Scheduling policies: which ready session runs next.

A policy is a pure function of (ready set, its own state, the
scheduler's seeded RNG) — no ambient randomness, no wall clock — so a
schedule is replayable from the seed alone.  The ready list is always
presented in session-id order, which pins iteration order and makes
ties deterministic.

* ``fifo`` — longest-runnable-first (a single global run queue; ties
  break toward the lowest session id).  With one session this degrades
  to plain sequential execution, which is what the N=1 bit-identity
  guarantee rests on.
* ``rr`` — round-robin over session ids: the next ready session after
  the last one dispatched, cyclically.
* ``lottery`` — a ticket lottery (Waldspurger & Weihl, OSDI '94) with
  one ticket per session: the winner is drawn uniformly from the ready
  set with the scheduler's seeded stream.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Dict, List, Sequence, Type

from repro.sched.session import Session

#: FIFO order: longest runnable first, ties to the lowest session id.
_FIFO_KEY = attrgetter("runnable_since", "sid")


class Policy:
    """Base policy; subclasses override :meth:`pick`."""

    name = "policy"

    def pick(self, ready: Sequence[Session], rng: random.Random) -> Session:
        raise NotImplementedError


class FIFOPolicy(Policy):
    """Longest-runnable session first (global FIFO run queue)."""

    name = "fifo"

    def pick(self, ready: Sequence[Session], rng: random.Random) -> Session:
        return min(ready, key=_FIFO_KEY)


class RoundRobinPolicy(Policy):
    """Cycle through session ids, skipping non-ready sessions."""

    name = "rr"

    def __init__(self) -> None:
        self._last = -1

    def pick(self, ready: Sequence[Session], rng: random.Random) -> Session:
        after = [s for s in ready if s.sid > self._last]
        chosen = after[0] if after else ready[0]
        self._last = chosen.sid
        return chosen


class LotteryPolicy(Policy):
    """Seeded lottery, one ticket per ready session."""

    name = "lottery"

    def pick(self, ready: Sequence[Session], rng: random.Random) -> Session:
        return ready[rng.randrange(len(ready))]


POLICIES: Dict[str, Type[Policy]] = {
    "fifo": FIFOPolicy,
    "rr": RoundRobinPolicy,
    "lottery": LotteryPolicy,
}


def make_policy(name: str) -> Policy:
    if name not in POLICIES:
        raise KeyError(f"unknown scheduling policy {name!r} (have {sorted(POLICIES)})")
    return POLICIES[name]()


def policy_names() -> List[str]:
    return sorted(POLICIES)
