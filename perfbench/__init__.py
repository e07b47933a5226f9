"""perfbench — the seeded syscall-trace benchmark of this repository.

Traces are generated from a seed inside this package
(:mod:`perfbench.traces`) and replayed through the public
``mount.vfs.*`` / ``repro.sched`` API (:mod:`perfbench.replay`); the
simulator never sees the seed.  Every number is reported on a named
clock: *host* (``perf_counter_ns``, how long the simulator took) or
*sim* (``mount.clock.now``, what the modelled hardware would take).

Entry points::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m perfbench [--seed 11] [--workload W] [--traced] [--out F]
    python -m perfbench.compare A.json B.json

See ``perfbench/README.md`` for every metric, workload and the
interaction table later changes are held to.
"""
