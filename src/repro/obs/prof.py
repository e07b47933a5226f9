"""Wall-clock provider.

This module is the **single sanctioned wall-clock reader** in the
whole package: the simulation-purity lint
(:mod:`repro.check.lint`) allowlists exactly one ``wall-clock``
finding, and it lives here, in :func:`wall_ns` — the lint self-test in
``tests/test_check.py`` pins it.  The one thing in the package that
needs real elapsed time, the harness's "total wall time" banner
(:class:`Stopwatch`), reads it here instead of touching :mod:`time`
directly, so a stray ``time.perf_counter()`` anywhere else in
``src/repro`` is a lint error, not a silent determinism leak.  Host
time per layer is not measured in the package: that is perfbench's
``--trace 1`` ledger.

``perf_counter_ns`` is the right primitive: it is monotonic (immune to
NTP steps and DST, unlike ``time.time()``), has the highest available
resolution, and — being an integer — accumulates no floating-point
error across long runs.
"""

from __future__ import annotations

import time

__all__ = [
    "Stopwatch",
    "wall_ns",
]


def wall_ns() -> int:
    """Monotonic wall-clock nanoseconds.

    The one sanctioned wall-clock read in ``src/repro`` (see the
    module docstring); every other wall-time consumer derives from it.
    """
    return time.perf_counter_ns()


class Stopwatch:
    """Elapsed wall time since construction (or the last ``reset``)."""

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = wall_ns()

    def reset(self) -> None:
        self._start = wall_ns()

    @property
    def elapsed_ns(self) -> int:
        return wall_ns() - self._start

    @property
    def elapsed(self) -> float:
        """Elapsed seconds."""
        return self.elapsed_ns / 1e9
