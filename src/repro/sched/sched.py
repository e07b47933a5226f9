"""The deterministic multi-tenant scheduler.

One :class:`Scheduler` drives N :class:`~repro.sched.session.Session`
coroutines over **one shared mount** — one VFS, one page cache, one
Bε-tree, one device timeline.  The main loop is a textbook dispatcher:

1. collect the ready sessions (id order);
2. ask the policy (FIFO / round-robin / lottery) for the next one,
   feeding it the scheduler's single seeded RNG;
3. charge a context-switch cost iff the dispatched session differs
   from the previous one (so an N=1 run charges nothing extra);
4. resume the session's generator; it executes VFS/tree operations —
   charging the shared simulated clock — until it hits a blocking
   point and yields, or finishes.

Sleepers and group commit: while a session's call runs, a device wait
is a *hold* on the clock rather than a jump of it
(``repro/device/clock.py``).  A call that returns with its hold
pending puts its session to sleep until the wait's deadline — and,
for a barrier, until the completion of the device flush group it
joined.  Before each dispatch the scheduler issues every pending
group whose device is idle and wakes the sleepers that are due.  When
no session is ready it issues the pending groups (nothing else can
run to join them), then advances the clock to the earliest instant a
sleeper can progress.

Wait accounting happens at dispatch: the interval between a session
becoming runnable and actually running is its *wait*, accumulated into
per-session totals, a latency histogram, and the max-wait starvation
gauge.  Fairness is summarized by Jain's index over per-session
service time and completed ops.

Determinism: scripts draw only from explicitly seeded RNGs, the policy
sees the ready set in a pinned order, lock handoff is FIFO, and
nothing reads the wall clock — so one (seed, policy, scripts) triple
produces one interleaving, byte for byte.  The scheduler additionally
asserts at every suspension that the Bε-tree is quiescent
(``KVEnv.in_critical``): a yield inside a flush/split would let
another session observe a half-mutated tree, and must be impossible.
"""

from __future__ import annotations

import random
import weakref
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.check.errors import SchedInvariantError, require
from repro.sched.locks import LockTable
from repro.sched.policy import Policy, make_policy
from repro.sched.session import (
    Blocked,
    BlockSignal,
    DONE,
    LOCKWAIT,
    READY,
    SLEEPING,
    Session,
    SessionContext,
)

#: Salt for the policy RNG stream (integer-keyed off the root seed, as
#: everywhere in the repo — never ``hash(str)``).
_POLICY_STREAM = 0x5C4ED


class SchedStats:
    """Numeric fairness/starvation snapshot for the stats table.

    Registered as an ad-hoc stats object (rendered in the "op counts"
    section of ``obs.render_stats()``); the scheduler refreshes it when
    :meth:`Scheduler.run` finishes.
    """

    def __init__(self) -> None:
        self.sessions = 0
        self.switches = 0
        self.dispatches = 0
        self.ops = 0
        self.jain_service = 1.0
        self.jain_ops = 1.0
        self.max_wait_seconds = 0.0
        self.lock_acquisitions = 0
        self.lock_contentions = 0


class Scheduler:
    """Interleave session generators over one shared mount."""

    def __init__(
        self,
        mount: Any,
        policy: str = "fifo",
        seed: int = 0,
        obs: Any = None,
    ) -> None:
        self.mount = mount
        self.clock = mount.clock
        #: Sessions asleep on a trailing wait, in the order they slept
        #: (every flush group not yet issued has a member among them).
        self._sleepers: List[Session] = []
        self.costs = mount.costs
        self.seed = seed
        self.policy: Policy = make_policy(policy)
        self.rng = random.Random((seed & 0xFFFFFFFF) ^ _POLICY_STREAM)
        self.locks = LockTable()
        self.signal = BlockSignal()
        #: Observed may-hold-while-acquiring pairs (held key, acquired
        #: key), recorded by ``SessionContext.acquire`` — cross-checked
        #: against the static lock graph computed by ``repro.check.conc``
        #: (``harness mt --verify-lock-graph``).
        self.lock_order: Set[Tuple[str, str]] = set()
        self.sessions: List[Session] = []
        self.switches = 0
        self.dispatches = 0
        self._env = getattr(mount, "env", None)
        self._started = 0.0
        self._finished: Optional[float] = None
        self.stats = SchedStats()
        scope = obs if obs is not None else getattr(mount, "obs", None)
        self._wait_hist = None
        self._op_hist = None
        if scope is not None:
            self._instrument(scope)

    # ------------------------------------------------------------------
    # Observability (gauges are pull-based: registered once, read at
    # collection time, zero per-dispatch cost)
    # ------------------------------------------------------------------
    def _instrument(self, scope: Any) -> None:
        # The scope outlives the mount (a metrics session keeps it), and
        # the scheduler holds the mount, so a gauge reaches the
        # scheduler only through a weak reference: it reads ``stats``,
        # refreshed first while the scheduler lives — and once it is
        # gone, as ``run`` last left them (only a run moves them).
        reg = scope.registry
        stats = self.stats
        me = weakref.ref(self)

        def gauge(name: str, field: str, cast: Callable[[Any], Any] = float) -> None:
            def read() -> Any:
                sched = me()
                if sched is not None:
                    sched._refresh_stats()
                return cast(getattr(stats, field))

            reg.gauge(name, layer="sched", fn=read)

        gauge("sched.sessions", "sessions", int)
        gauge("sched.switches", "switches")
        gauge("sched.dispatches", "dispatches")
        gauge("sched.jain_index", "jain_service")
        gauge("sched.jain_ops", "jain_ops")
        gauge("sched.max_wait_seconds", "max_wait_seconds")
        gauge("sched.lock_contentions", "lock_contentions")
        self._wait_hist = scope.latency("sched.wait", layer="sched")
        self._op_hist = scope.latency("sched.op_latency", layer="sched")
        scope.register_object("sched.fairness", self.stats, layer="sched")

    def _refresh_stats(self) -> None:
        st = self.stats
        st.sessions = len(self.sessions)
        st.switches = self.switches
        st.dispatches = self.dispatches
        st.ops = self.total_ops()
        st.jain_service = self.jain_service()
        st.jain_ops = self.jain_ops()
        st.max_wait_seconds = self.max_wait()
        st.lock_acquisitions = self.locks.acquisitions
        st.lock_contentions = self.locks.contentions

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        script: Callable[[SessionContext], Generator[Blocked, None, None]],
        affinity: Optional[int] = None,
    ) -> Session:
        """Create a session from a script factory ``script(ctx)``.

        ``affinity`` tags the session with its home shard on a sharded
        mount; the dispatcher ignores it (accounting only).
        """
        sid = len(self.sessions)
        ctx = SessionContext(sid, self)
        session = Session(sid, name, ctx)
        session.affinity = affinity
        ctx.session = session
        session.gen = script(ctx)
        self.sessions.append(session)
        return session

    # ------------------------------------------------------------------
    # Callbacks from SessionContext
    # ------------------------------------------------------------------
    def wake_lock_waiter(self, sid: int) -> None:
        session = self.sessions[sid]
        if session.state != LOCKWAIT:
            raise SchedInvariantError(
                f"lock handoff to session {sid} in state {session.state}"
            )
        session.state = READY
        session.runnable_since = self.clock.now

    def note_op_done(self, session: Session) -> None:
        now = self.clock.now
        latency = now - session.last_op_end
        session.last_op_end = now
        session.latencies.append(latency)
        session.ops += 1
        if self._op_hist is not None:
            self._op_hist.observe(latency)

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run every session to completion (the whole multi-tenant
        workload executes inside this call)."""
        vfs = getattr(self.mount, "vfs", None)
        self._started = self.clock.now
        for session in self.sessions:
            session.runnable_since = self._started
            session.last_op_end = self._started
        if vfs is not None:
            vfs.block_signal = self.signal
        if self._env is not None:
            self._env.block_signal = self.signal
        self.clock.holds = True
        try:
            self._loop()
        finally:
            if vfs is not None:
                vfs.block_signal = None
            if self._env is not None:
                self._env.block_signal = None
            self.clock.holds = False
            self._refresh_stats()
        self._finished = self.clock.now

    def _loop(self) -> None:
        last: Optional[Session] = None
        clock = self.clock
        sleepers = self._sleepers
        while True:
            if sleepers:
                self._wake_due()
            ready = [s for s in self.sessions if s.state == READY]
            if not ready:
                if sleepers:
                    # Nothing can run to join a pending flush group:
                    # issue them all, then sleep to the first alarm.
                    for session in sleepers:
                        if session.group is not None:
                            session.group.issue()
                    now = clock.now
                    clock.advance(min(_alarm(s, now) for s in sleepers))
                    continue
                blocked = [s for s in self.sessions if s.state == LOCKWAIT]
                require(
                    not blocked,
                    "scheduler stalled: sessions blocked on locks with no "
                    "runnable owner (lock-order violation in the workload)",
                    SchedInvariantError,
                    detail=[s.name for s in blocked],
                )
                return  # all sessions DONE
            session = self.policy.pick(ready, self.rng)
            now = self.clock.now
            wait = now - session.runnable_since
            if wait > 0.0:
                session.note_wait(wait)
                if self._wait_hist is not None:
                    self._wait_hist.observe(wait)
            self.dispatches += 1
            if last is not None and last is not session:
                # The only cost the scheduler itself charges; absent at
                # N=1, so the sequential path is reproduced bit-for-bit.
                self.clock.cpu(self.costs.context_switch)
                self.switches += 1
            last = session
            self._step(session)

    def _wake_due(self) -> None:
        """Issue the pending flush groups whose device is idle, then
        make every sleeper whose wait is over runnable again."""
        now = self.clock.now
        for session in self._sleepers:
            group = session.group
            if group is not None and group.idle(now):
                group.issue()
        still: List[Session] = []
        for session in self._sleepers:
            alarm = _alarm(session, now)
            if alarm <= now:
                session.state = READY
                session.runnable_since = alarm
                session.group = None
            else:
                still.append(session)
        self._sleepers[:] = still

    def _step(self, session: Session) -> None:
        clock = self.clock
        t0 = clock.now
        try:
            event = next(session.gen)
        except StopIteration:
            clock.realize()  # a finished session has nothing to sleep
            session.service += self.clock.now - t0
            session.state = DONE
            held = self.locks.held_by(session.sid)
            require(
                not held,
                f"session {session.sid} finished holding locks",
                SchedInvariantError,
                detail=held,
            )
            return
        if not isinstance(event, Blocked):
            raise SchedInvariantError(
                f"session yielded a non-Blocked event: {event!r}"
            )
        if event.lock_key is not None:
            clock.realize()  # a lock waiter wakes on its handoff only
        session.service += clock.now - t0
        # Reentrancy audit: a suspension must never happen inside a
        # tree critical section (flush/split half-applied).
        if self._env is not None and self._env.in_critical:
            raise SchedInvariantError(
                "session suspended inside a Bε-tree critical section"
            )
        if event.lock_key is not None:
            session.state = LOCKWAIT
        elif clock.hold is not None:
            # The call ended on a device wait: sleep through it.
            session.wake, session.group = clock.hold, clock.group
            clock.hold = clock.group = None
            session.state = SLEEPING
            self._sleepers.append(session)
        else:
            session.state = READY
            session.runnable_since = clock.now

    # ------------------------------------------------------------------
    # Fairness / starvation metrics
    # ------------------------------------------------------------------
    @staticmethod
    def _jain(values: List[float]) -> float:
        """Jain's fairness index: (Σx)² / (n·Σx²); 1.0 = perfectly
        fair, 1/n = one session got everything.  Empty/all-zero → 1.0."""
        n = len(values)
        sumsq = sum(v * v for v in values)
        if n == 0 or sumsq == 0.0:
            return 1.0
        total = sum(values)
        return (total * total) / (n * sumsq)

    def jain_service(self) -> float:
        return self._jain([s.service for s in self.sessions])

    def jain_ops(self) -> float:
        return self._jain([float(s.ops) for s in self.sessions])

    def max_wait(self) -> float:
        return max((s.max_wait for s in self.sessions), default=0.0)

    def total_ops(self) -> int:
        return sum(s.ops for s in self.sessions)

    def block_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for session in self.sessions:
            for kind, count in session.blocks.items():
                totals[kind] = totals.get(kind, 0) + count
        return {k: totals[k] for k in sorted(totals)}

    @property
    def started(self) -> float:
        """Simulated instant :meth:`run` began."""
        return self._started

    @property
    def elapsed(self) -> float:
        end = self._finished if self._finished is not None else self.clock.now
        return end - self._started


def _alarm(session: Session, now: float) -> float:
    """The instant a sleeper can next progress: its wait's deadline,
    then the completion of its flush group (never, before the group is
    issued)."""
    if session.wake > now or session.group is None:
        return session.wake
    done = session.group.done
    return float("inf") if done is None else done
