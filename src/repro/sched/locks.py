"""Session-scoped locks with deterministic FIFO handoff.

The scheduler interleaves sessions at *yield points* only, so every
VFS/tree operation executes atomically with respect to other sessions.
Locks exist for the multi-operation critical sections a workload builds
*above* single syscalls — e.g. the mailserver's mark (write + fsync)
holds its folder lock across the blocking yield between the two calls —
and they are what makes those interleavings safe **and reproducible**:

* waiters queue in FIFO order, independent of the scheduling policy, so
  a lottery schedule cannot reorder two sessions contending for the
  same folder;
* release performs a **direct handoff** to the head waiter (ownership
  transfers at release time, before any other session runs), so there
  is no barging and no acquisition race to make timing-dependent;
* acquisition of multiple locks must follow a caller-declared total
  order (the workload sorts its lock keys), which makes deadlock
  impossible by construction; the scheduler still detects and reports
  any all-blocked state rather than spinning.

Locks are pure control-flow objects: they never touch the simulated
clock (waiting time passes only because *other* sessions execute and
charge it) and never move bytes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.check.errors import SchedInvariantError


class SessionLock:
    """One exclusive lock: an owner session id plus a FIFO wait queue."""

    __slots__ = ("key", "owner", "waiters", "acquisitions", "contentions")

    def __init__(self, key: str) -> None:
        self.key = key
        self.owner: Optional[int] = None
        self.waiters: Deque[int] = deque()
        self.acquisitions = 0
        self.contentions = 0

    def try_take(self, sid: int) -> bool:
        """Take the lock if free; never blocks, never queues."""
        if self.owner == sid:
            raise SchedInvariantError(
                f"session {sid} re-acquiring lock {self.key!r} it already holds"
            )
        if self.owner is None:
            self.owner = sid
            self.acquisitions += 1
            return True
        return False

    def enqueue(self, sid: int) -> None:
        if sid in self.waiters:
            raise SchedInvariantError(
                f"session {sid} queued twice on lock {self.key!r}"
            )
        self.waiters.append(sid)
        self.contentions += 1

    def release(self, sid: int) -> Optional[int]:
        """Release; returns the session id granted ownership (handoff),
        or None if nobody was waiting."""
        if self.owner != sid:
            raise SchedInvariantError(
                f"session {sid} releasing lock {self.key!r} owned by {self.owner}"
            )
        if self.waiters:
            nxt = self.waiters.popleft()
            self.owner = nxt  # direct handoff: no barging window
            self.acquisitions += 1
            return nxt
        self.owner = None
        return None


class LockTable:
    """All locks of one scheduler run, created on first use by key."""

    def __init__(self) -> None:
        self._locks: Dict[str, SessionLock] = {}

    def get(self, key: str) -> SessionLock:
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = SessionLock(key)
        return lock

    def held_by(self, sid: int) -> List[str]:
        return sorted(
            key for key, lock in self._locks.items() if lock.owner == sid
        )

    @property
    def contentions(self) -> int:
        return sum(lock.contentions for lock in self._locks.values())

    @property
    def acquisitions(self) -> int:
        return sum(lock.acquisitions for lock in self._locks.values())
