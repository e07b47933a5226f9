"""The simulated clock.

All simulated time in the reproduction flows through one
:class:`SimClock`.  Components charge CPU time with :meth:`cpu`;
devices advance the clock when synchronous I/O completes.  Asynchronous
I/O is modeled by letting the device keep its *own* busy-until horizon
(see ``repro/device/block.py``) so CPU work and device transfers can
overlap, exactly the effect the paper's read-ahead and write-back
optimizations exploit.

Holds
-----

While a scheduler runs a session's call (:attr:`SimClock.holds`), a
device wait does not move the shared clock: it becomes the call's
*hold*.  The next charge, wait or device command of the same call
realizes the hold first, exactly as the wait would have, so a wait
followed by more work costs what it always did.  A hold still pending
when the call returns is a *trailing* wait, and the scheduler sleeps
the session until it, letting other sessions run meanwhile
(``repro/sched/sched.py``).  A barrier the device cannot start at once
holds the call on the device's :class:`FlushGroup` instead, and every
flush that joins the group before it is issued shares its one device
flush (group commit).
"""

from __future__ import annotations

from typing import Optional


class FlushGroup:
    """The flushes requested of one busy device, to be issued as one.

    ``device`` issues the barrier (``BlockDevice._issue_group``);
    ``done`` is its completion instant once issued, ``None`` before.
    """

    __slots__ = ("device", "done")

    def __init__(self, device) -> None:
        self.device = device
        self.done: Optional[float] = None

    def idle(self, now: float) -> bool:
        """Whether the device could start the flush at ``now``."""
        return self.device.busy_until <= now

    def issue(self) -> float:
        """Issue the group's flush (once); returns its completion."""
        if self.done is None:
            self.done = self.device._issue_group(self)
        return self.done


class SimClock:
    """A monotonically increasing simulated clock (seconds)."""

    __slots__ = ("now", "cpu_time", "io_wait", "holds", "hold", "group")

    def __init__(self) -> None:
        self.now = 0.0
        #: Total CPU seconds charged (subset of ``now``).
        self.cpu_time = 0.0
        #: Total seconds spent waiting on device completions.
        self.io_wait = 0.0
        #: Set by a scheduler while it runs a session's calls: a wait
        #: then becomes the call's hold instead of advancing ``now``.
        self.holds = False
        #: The call's pending wait deadline, ``None`` when there is none.
        self.hold: Optional[float] = None
        #: The flush group the call's barrier joined (with ``hold`` set,
        #: to ``now`` if nothing else was pending).
        self.group: Optional[FlushGroup] = None

    def cpu(self, seconds: float) -> None:
        """Charge ``seconds`` of CPU work."""
        if seconds <= 0.0:
            return
        if self.hold is not None:
            self.realize()
        self.now += seconds
        self.cpu_time += seconds

    def wait_until(self, deadline: float) -> None:
        """Block until ``deadline`` if in the future: advance the clock,
        or, while :attr:`holds`, make it the call's hold."""
        if self.hold is not None:
            self.realize()
        if deadline > self.now:
            if self.holds:
                self.hold = deadline
            else:
                self.advance(deadline)

    def wait_for(self, seconds: float) -> None:
        """Block for ``seconds`` past the realized clock (a backoff
        after a wait, which ``wait_until(now + seconds)`` would measure
        from before the hold)."""
        self.realize()
        self.wait_until(self.now + seconds)

    def advance(self, deadline: float) -> None:
        """Move the clock to ``deadline`` (if later), as waiting time."""
        if deadline > self.now:
            self.io_wait += deadline - self.now
            self.now = deadline

    def realize(self) -> None:
        """Wait out the call's hold now, if any: its deadline, then its
        flush group (issued here if the scheduler has not yet)."""
        deadline, group = self.hold, self.group
        if deadline is None:
            return
        self.hold = self.group = None
        self.advance(deadline)
        if group is not None:
            self.advance(group.issue())

    def reset(self) -> None:
        """Rewind the clock to zero (new experiment)."""
        self.now = 0.0
        self.cpu_time = 0.0
        self.io_wait = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimClock(now={self.now:.6f}s cpu={self.cpu_time:.6f}s "
            f"io_wait={self.io_wait:.6f}s)"
        )
