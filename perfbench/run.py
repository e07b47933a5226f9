#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The process is the "fresh subprocess per workload": it generates the
trace from the seed, replays it once as a discarded warm-up, then
replays it on fresh mounts for ``--seconds`` (at least three
repetitions; the clock covers each rep's mount build, preload and timed
replay), checks every output, and prints a table and — as the last
line of stdout — one JSON object::

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}

``metrics`` holds the end-to-end metrics with ``--trace 0`` and the
per-layer metrics (one extra traced rep) with ``--trace 1``.  Exit code
is 0 iff no op failed and all reps agreed on simulated time and the
device image; non-zero, with no result line, where ``src/repro`` is
missing.  ``--detail`` additionally prints the full record the suite
(``python -m perfbench``) collects.
"""

from __future__ import annotations

import time

#: Process start, as near as a script can tell: ``setup_s`` counts from here.
_T_START = time.perf_counter()

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    # Run as a script, sys.path[0] is this directory, whose trace.py
    # would shadow the standard library's; import as a package instead.
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path[0] = ROOT
    else:
        sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError:
        print("perfbench: the simulator (src/repro) is not here", file=sys.stderr)
        return 2
    from perfbench.measure import main as measure

    return measure(sys.argv[1:] if argv is None else argv, _T_START)


if __name__ == "__main__":
    sys.exit(main())
