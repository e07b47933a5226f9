"""``repro.sched`` — deterministic multi-tenant scheduling.

The north star is a stack that serves many clients at once; this
package supplies the concurrency model: client sessions are
deterministic generator-based coroutines
(:class:`~repro.sched.session.Session`) that yield at simulated
blocking points (page-cache miss, tree I/O, fsync/journal commit, lock
wait) and sleep through the device wait a call ends on, interleaved by
a seeded, policy-pluggable scheduler
(:class:`~repro.sched.sched.Scheduler`; FIFO / round-robin / lottery,
:mod:`repro.sched.policy`) over shared VFS / page-cache / Bε-tree
state on one device timeline.  Session-scoped locks
(:mod:`repro.sched.locks`) guard multi-operation critical sections with
deterministic FIFO handoff.

Guarantees (asserted by ``tests/test_sched.py``):

* same seed ⇒ byte-identical device image, simulated clock, and
  per-session latency report;
* one session ⇒ bit-identical to the sequential path (no switches, no
  extra charges);
* sessions never suspend inside a Bε-tree critical section.

See DESIGN.md, "Concurrency model", and
``python -m repro.harness mt --sessions 64 --seed 7``.
"""

from repro.sched.locks import LockTable, SessionLock
from repro.sched.policy import (
    FIFOPolicy,
    LotteryPolicy,
    Policy,
    POLICIES,
    RoundRobinPolicy,
    make_policy,
    policy_names,
)
from repro.sched.sched import Scheduler
from repro.sched.session import (
    BLOCK_KINDS,
    Blocked,
    BlockSignal,
    FSYNC,
    JOURNAL_COMMIT,
    LOCK_WAIT,
    PAGECACHE_MISS,
    Session,
    SessionContext,
    TREE_IO,
    WRITEBACK,
)

__all__ = [
    "BLOCK_KINDS",
    "Blocked",
    "BlockSignal",
    "FIFOPolicy",
    "FSYNC",
    "JOURNAL_COMMIT",
    "LOCK_WAIT",
    "LockTable",
    "LotteryPolicy",
    "PAGECACHE_MISS",
    "POLICIES",
    "Policy",
    "RoundRobinPolicy",
    "Scheduler",
    "Session",
    "SessionContext",
    "SessionLock",
    "TREE_IO",
    "WRITEBACK",
    "make_policy",
    "policy_names",
]
