"""Client sessions: deterministic generator-based coroutines.

A *session* is one simulated client (a mail user, a web client, ...).
Its behaviour is a plain Python generator — the *script* — driving the
shared mount through a :class:`SessionContext`.  The script never calls
the VFS directly; it goes through the context's generator primitives::

    def script(ctx):
        yield from ctx.acquire("folder:3")
        yield from ctx.run(vfs.write, path, 0, data)   # may yield
        yield from ctx.run(vfs.fsync, path)            # yields (fsync)
        ctx.release("folder:3")
        ctx.op_done()                                  # latency sample

Yields happen only at **simulated blocking points** — the places a real
kernel would put this client to sleep:

* ``pagecache_miss`` — a read faulted a page in from the backend;
* ``tree_io`` — the Bε-tree read a node/basement from the device;
* ``writeback`` — the write crossed the dirty limit and synchronously
  wrote back;
* ``fsync`` / ``journal_commit`` — a durability barrier;
* ``lock_wait`` — a session-scoped lock was contended.

The first four are *reported upward* by the layers below through a
:class:`BlockSignal` the scheduler installs on the VFS and KV
environment (``block_signal`` attributes, ``None`` — and therefore
free — outside scheduled runs).  An operation runs to completion
before its session yields, so every VFS/tree call is atomic with
respect to other sessions and the Bε-tree is always quiescent at a
switch (the scheduler asserts this against the core's critical-section
depth).  A call that ends on a device wait — its *hold* on the
simulated clock (``repro/device/clock.py``) — also yields, and its
session sleeps until the wait is over while others run.  Determinism
follows: the interleaving is a pure function of the scripts, the
policy, and the seed.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.check.errors import SchedInvariantError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.sched import Scheduler

# ----------------------------------------------------------------------
# Blocking-point kinds (values reported by the layers below)
# ----------------------------------------------------------------------
PAGECACHE_MISS = "pagecache_miss"
TREE_IO = "tree_io"
WRITEBACK = "writeback"
FSYNC = "fsync"
JOURNAL_COMMIT = "journal_commit"
LOCK_WAIT = "lock_wait"

#: Every kind, in reporting order.
BLOCK_KINDS = (
    PAGECACHE_MISS, TREE_IO, WRITEBACK, FSYNC, JOURNAL_COMMIT, LOCK_WAIT,
)

# Session lifecycle states.
READY = "ready"
LOCKWAIT = "lockwait"
SLEEPING = "sleeping"
DONE = "done"


class BlockSignal:
    """Collector the lower layers report blocking events into.

    One instance is shared by a scheduler run; :meth:`SessionContext.run`
    clears ``kinds`` before each call and reads it after, which is
    race-free because calls are atomic between yield points.  ``note()``
    is cheap and allocation-free on the repeat path; layers guard the
    call with ``if signal is not None`` so unscheduled runs pay a single
    attribute test.
    """

    __slots__ = ("kinds",)

    def __init__(self) -> None:
        self.kinds: List[str] = []

    def note(self, kind: str) -> None:
        if kind not in self.kinds:
            self.kinds.append(kind)


class Blocked:
    """Yielded by session code to the scheduler: "I hit a blocking
    point of ``kind``; schedule somebody (possibly me) next"."""

    __slots__ = ("kind", "lock_key")

    def __init__(self, kind: str, lock_key: Optional[str] = None) -> None:
        self.kind = kind
        self.lock_key = lock_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" lock={self.lock_key!r}" if self.lock_key else ""
        return f"<Blocked {self.kind}{extra}>"


#: The one event yielded for each reported blocking kind: the scheduler
#: only reads an event, so a yield that names no lock reuses it.
_YIELDS: Dict[str, Blocked] = {kind: Blocked(kind) for kind in BLOCK_KINDS}

#: Yielded by a call that ends on a device wait no layer reported.
_DEVICE_WAIT = Blocked("device_wait")


class Session:
    """One client session: script generator + scheduling accounting."""

    def __init__(self, sid: int, name: str, ctx: "SessionContext") -> None:
        self.sid = sid
        self.name = name
        self.ctx = ctx
        self.gen: Optional[Generator[Blocked, None, None]] = None
        self.state = READY
        #: Shard this session's home directory routes to (``None`` on an
        #: unsharded mount) — pure accounting, never read by dispatch.
        self.affinity: Optional[int] = None
        #: Simulated instant this session last became runnable.
        self.runnable_since = 0.0
        #: While sleeping: the deadline of the call's trailing wait,
        #: then the flush group whose completion it waits for (or None).
        self.wake = 0.0
        self.group: Optional[Any] = None
        #: Completion instant of the previous logical op (latency base).
        self.last_op_end = 0.0
        #: Per-op sojourn latencies (wait + service), simulated seconds.
        self.latencies: List[float] = []
        self.ops = 0
        #: Total simulated seconds this session spent executing.
        self.service = 0.0
        #: Total simulated seconds spent runnable-but-not-running or
        #: waiting on a lock.
        self.wait_total = 0.0
        #: Longest single wait interval (starvation indicator).
        self.max_wait = 0.0
        self.blocks: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def note_wait(self, wait: float) -> None:
        self.wait_total += wait
        if wait > self.max_wait:
            self.max_wait = wait

    def note_block(self, kind: str) -> None:
        self.blocks[kind] = self.blocks.get(kind, 0) + 1

    def percentile(self, q: float) -> float:
        """Exact per-op latency percentile (nearest-rank), seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session {self.sid} {self.name!r} {self.state}>"


class SessionContext:
    """The handle a session script drives the shared mount through.

    All methods that can suspend are generators (``yield from`` them);
    the plain methods never suspend.  The context is deliberately thin:
    lock *policy* (which keys, in what order) belongs to the workload,
    blocking detection belongs to the layers below, and the context
    only carries events between them and the scheduler.
    """

    def __init__(self, sid: int, sched: "Scheduler") -> None:
        self.sid = sid
        # A proxy, so that no cycle holds the scheduler and, through
        # it, the mount: a dropped scheduler dies at once, and the mount
        # with it (a metrics session freezes a scope when its mount dies).
        self.sched: "Scheduler" = weakref.proxy(sched)
        self.session: Optional[Session] = None  # set by Scheduler.spawn
        # The scheduler's plain per-run state every primitive touches,
        # bound once (none of it reaches the mount, none is a bound method).
        self._kinds: List[str] = sched.signal.kinds
        self._clock: Any = sched.clock
        self._locks = sched.locks
        self._lock_order: Set[Tuple[str, str]] = sched.lock_order
        #: Keys this session holds, in acquisition order.
        self._held: List[str] = []

    # ------------------------------------------------------------------
    # Blocking primitives (costflow seed set: suspension passes
    # simulated time to the session; the scheduler accounts it)
    # ------------------------------------------------------------------
    def run(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Generator[Blocked, None, Any]:
        """Execute one VFS-level call; yield once if it hit a blocking
        point or ends on a device wait (the scheduler then sleeps the
        session until the wait is over).  Returns the call's result
        (via ``yield from``)."""
        kinds = self._kinds
        if kinds:
            kinds.clear()
        out = fn(*args, **kwargs)
        if kinds:
            note_block = self.session.note_block
            for kind in kinds:
                note_block(kind)
            yield _YIELDS[kinds[0]]
        elif self._clock.hold is not None:
            yield _DEVICE_WAIT
        return out

    def acquire(self, key: str) -> Generator[Blocked, None, None]:
        """Take the session lock ``key``, suspending while contended.

        Multi-lock callers must acquire in a sorted key order —
        deadlock freedom is the caller's obligation and the scheduler's
        all-blocked check is the backstop, not the design.  Each held
        key is recorded as held-while-acquiring ``key`` — a pure
        observer: it grows a set, never the simulated clock, so it
        cannot perturb the interleaving (the mt byte-identity tests
        pin this).
        """
        held = self._held
        for other in held:
            if other != key:
                self._lock_order.add((other, key))
        sid = self.sid
        lock = self._locks.get(key)
        if not lock.try_take(sid):
            lock.enqueue(sid)
            self.session.note_block(LOCK_WAIT)
            yield Blocked(LOCK_WAIT, lock_key=key)
            # Resumed ⇒ release() handed the lock to this session.
            if lock.owner != sid:
                raise SchedInvariantError(
                    f"session {sid} resumed without owning {key!r}"
                )
        held.append(key)

    def release(self, key: str) -> None:
        """Release ``key``; hands off to the head waiter, who becomes
        runnable immediately (but runs only when next scheduled)."""
        granted = self._locks.get(key).release(self.sid)
        self._held.remove(key)
        if granted is not None:
            self.sched.wake_lock_waiter(granted)

    def op_done(self) -> None:
        """Mark a logical operation boundary: record one sojourn-latency
        sample (completion-to-completion on the simulated clock)."""
        self.sched.note_op_done(self.session)
