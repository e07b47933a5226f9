"""CLI: regenerate the paper's tables and figures, and run the tools.

One subcommand per target, each accepting only the options it reads
(``python -m repro.harness <target> --help`` lists them)::

    python -m repro.harness table3
    python -m repro.harness fig2 --figures fig2c fig2d
    python -m repro.harness all --out results/
    python -m repro.harness all --check
    python -m repro.harness fsck crash.img

The paper targets (table1, table3, fig2, hdd, all, ftl) install an
observability session only when ``--metrics-out`` or ``--trace-out``
asks for one; otherwise each mount's scope dies with its mount.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.harness.figures import FIGURES, render_figures, run_figures
from repro.obs import Observability, current, session
from repro.obs.prof import Stopwatch
from repro.harness.report import (
    RESULT_FILES,
    render_experiments_md,
    results_differences,
    write_results_json,
)
from repro.harness.runner import (
    TABLE1_SYSTEMS,
    TABLE3_SYSTEMS,
    run_hdd_context,
    run_microbenches,
)
from repro.harness.tables import render_vs_paper
from repro.workloads.scale import DEFAULT_SCALE, SMOKE_SCALE, WorkloadScale


def _at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``, so an
    out-of-range count fails at parse time (exit 2), not mid-run."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


#: Every option, declared once; a target row names the ones it reads.
OPTIONS = {
    "image": dict(
        nargs="?",
        help="device image file (written with repro.check.fsck.save_image); "
        "omit to fsck a freshly-built smoke image",
    ),
    "--scale": dict(
        choices=["default", "smoke"],
        default="default",
        help="workload scale (smoke is for quick checks)",
    ),
    "--figures": dict(nargs="*", choices=sorted(FIGURES), help="subset of Figure 2 panels"),
    "--systems": dict(nargs="*", help="subset of file systems to run"),
    "--out": dict(help="directory for results.json (all: + EXPERIMENTS.md)"),
    "--metrics-out": dict(
        metavar="METRICS_JSON",
        help="write per-mount metrics (counters, latency percentiles) as JSON after the run",
    ),
    "--trace-out": dict(
        metavar="TRACE_JSON",
        help="record spans and write a Chrome trace_event JSON "
        "(chrome://tracing / Perfetto) after the run",
    ),
    "--seed": dict(
        type=int,
        default=0,
        help="root RNG seed (every derived stream is integer-keyed off it; "
        "same seed = bit-identical summary)",
    ),
    "--budget": dict(
        type=_at_least(1),
        default=200,
        help="crash states to explore, split across the workloads",
    ),
    "--torture-out": dict(
        metavar="REPRO_JSON",
        help="where the shrunk repro file goes if a violation is found "
        "(default: crashmc-repro.json)",
    ),
    "--check": dict(
        action="store_true",
        help="regenerate into a temporary directory, byte-diff against the committed "
        "results/results.json and results/EXPERIMENTS.md, print each differing cell "
        "and exit non-zero on any difference",
    ),
    "--sessions": dict(type=_at_least(1), default=8, help="number of concurrent client sessions"),
    "--policy": dict(
        choices=["fifo", "rr", "lottery"],
        default="fifo",
        help="scheduling policy (see repro.sched.policy)",
    ),
    "--ops-per-session": dict(
        type=_at_least(0),
        default=0,
        help="ops per session (0 = split the scale's sequential op count across the sessions)",
    ),
    "--shards": dict(
        type=_at_least(0),
        default=0,
        help="partition the namespace over N Bε-tree volumes (repro.shard); "
        "0 = the plain unsharded mount",
    ),
    "--workload": dict(
        choices=["mailserver_mt", "webserver_mt"],
        default="mailserver_mt",
        help="which multi-tenant workload to drive",
    ),
    "--verify-lock-graph": dict(
        action="store_true",
        help="cross-check every observed lock acquisition order against the "
        "repro.check.conc static lock graph (exit 1 on an uncovered pair)",
    ),
    "--verify-order-graph": dict(
        action="store_true",
        help="cross-check every observed (effect, barrier) ordering against the "
        "repro.check.durflow static order graph (exit 1 on an uncovered pair)",
    ),
    "--quiet": dict(action="store_true", help="no progress output"),
}

#: The checkout root.
REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
#: The committed output of ``all --out results/`` (``all --check``).
RESULTS_DIR = os.path.join(REPO_ROOT, "results")

_EXPORTS = ("--metrics-out", "--trace-out", "--quiet")
_TABLES = ("--scale", "--systems", "--out") + _EXPORTS
_FIGURES = _TABLES + ("--figures",)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line; ``args.run(args)`` runs it."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the evaluation of BetrFS v0.6 (EuroSys '22)",
    )
    targets = parser.add_subparsers(dest="target", required=True, metavar="target")
    for name, (help_, options, run) in TARGETS.items():
        sub = targets.add_parser(name, help=help_, description=help_)
        for option in options:
            sub.add_argument(option, **OPTIONS[option])
        sub.set_defaults(run=run)
    return parser.parse_args(argv)


def scale_by_name(name: str) -> WorkloadScale:
    return DEFAULT_SCALE if name == "default" else SMOKE_SCALE


def main(argv=None) -> int:
    args = parse_args(argv)
    return args.run(args)


def _paper(produce, experiments_md: bool = False, wall: bool = False):
    """The runner of a paper target: ``produce(args, scale, verbose) ->
    (tables, figures)``, then the exports and the ``--out`` files.

    An observability session exists only when an export asks for one,
    or ``wall`` (dual-clock spans, which ``stats`` prints): a session
    keeps every mount it saw alive until the export, and observers are
    pure, so the results are the same without one.
    """

    def run(args) -> int:
        # Monotonic wall timer via the sanctioned provider — time.time()
        # can step backwards across clock adjustments.
        watch = Stopwatch()
        scale = scale_by_name(args.scale)
        obs = None
        if wall or args.metrics_out or args.trace_out:
            obs = Observability(tracing=args.trace_out is not None, wall=wall)
        with session(obs):
            tables, figures = produce(args, scale, not args.quiet)
        _write_exports(obs, args)

        def write(out: str) -> None:
            os.makedirs(out, exist_ok=True)
            write_results_json(os.path.join(out, "results.json"), tables, figures)
            if experiments_md:
                with open(os.path.join(out, "EXPERIMENTS.md"), "w") as fh:
                    fh.write(render_experiments_md(tables, figures, scale.name))

        out = getattr(args, "out", None)
        if out:
            write(out)
            print(f"results written to {out}/")
        status = 0
        if getattr(args, "check", False):
            with tempfile.TemporaryDirectory() as fresh:
                write(fresh)
                status = _check_results(results_differences(RESULTS_DIR, fresh))
        print(f"total wall time: {watch.elapsed:.1f}s", file=sys.stderr)
        return status

    return run


def _check_results(changes) -> int:
    """``all --check``: each cell / line that differs from the committed
    ``results/`` on stderr, exit code 1 if any does."""
    for line in changes:
        print(f"RESULTS MISMATCH: {line}", file=sys.stderr)
    if changes:
        print(
            f"all --check: {len(changes)} difference(s) from the committed "
            "results/ — regenerate with `all --out results/` and name the "
            "cells that moved",
            file=sys.stderr,
        )
        return 1
    print(
        f"all --check: {' and '.join(RESULT_FILES)} match the committed "
        "results/ byte for byte",
        file=sys.stderr,
    )
    return 0


def _write_exports(obs, args) -> None:
    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if getattr(args, "trace_out", None):
        obs.write_trace(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)


def _microbenches(args, scale, verbose, default_systems):
    tables = run_microbenches(args.systems or default_systems, scale, verbose=verbose)
    print(render_vs_paper(tables, list(tables), f"{args.target}: measured (paper)"))
    return tables


def _figures(args, scale, verbose):
    figures = run_figures(figures=args.figures, systems=args.systems, scale=scale, verbose=verbose)
    print(render_figures(figures))
    return figures


def _hdd(args, scale, verbose):
    rows = run_hdd_context(systems=args.systems, scale=scale, verbose=verbose)
    title = "HDD context: measured (paper SSD values for reference)"
    print(render_vs_paper(rows, list(rows), title))
    return rows, {}


def _ftl(args, scale, verbose):
    from repro.harness.ftl import run_ftl_smoke

    tables = {
        name: run_ftl_smoke(scale=scale, system=name, verbose=verbose)
        for name in args.systems or ["BetrFS v0.6"]
    }
    print(json.dumps(tables, indent=1))
    return tables, {}


def _stats(args, scale, verbose):
    """Run a representative workload (default: the tar figure) and print
    the session's per-layer tables plus the sim-vs-wall overhead map."""
    figures = args.figures or ["fig2a"]
    run_figures(figures=figures, systems=args.systems, scale=scale, verbose=verbose)
    print(current().render_stats())
    print()
    print(current().render_overhead())
    return {}, {}


def _check_coverage(target, graph_name, pair_name, kind, observed, graph) -> int:
    """Exit code 1 if a pair observed at runtime is absent from the
    static graph; verification speaks only on stderr."""
    uncovered = [(a, b) for a, b in observed if not graph.covers(a, b)]
    for a, b in uncovered:
        print(
            f"{target}: {pair_name} {a!r} -> {b!r} observed at runtime but "
            f"absent from the static {graph_name} graph",
            file=sys.stderr,
        )
    if uncovered:
        return 1
    print(
        f"{target}: {graph_name} graph verified — {len(observed)} observed "
        f"{kind} all covered statically",
        file=sys.stderr,
    )
    return 0


def _run_mt(args) -> int:
    """``python -m repro.harness mt --sessions N --seed S``.

    Runs the multi-tenant mailserver under the deterministic session
    scheduler and prints the summary JSON on stdout — sorted keys, no
    wall time — so two same-seed runs byte-diff clean.  The per-layer
    stats table (including the ``sched`` fairness gauges) and a short
    fairness report go to stderr unless ``--quiet``.
    """
    from repro.harness.mt import render_fairness, run_mt, to_json

    obs = Observability()
    with session(obs):
        summary = run_mt(
            scale_by_name(args.scale),
            sessions=args.sessions,
            seed=args.seed,
            policy=args.policy,
            ops_per_session=args.ops_per_session,
            shards=args.shards,
            workload=args.workload,
        )
        stats = obs.render_stats()
    print(to_json(summary), end="")
    if not args.quiet:
        print(stats, file=sys.stderr)
        print(render_fairness(summary), file=sys.stderr)
    _write_exports(obs, args)
    if args.verify_lock_graph:
        from repro.check import conc

        return _check_coverage(
            "mt", "lock", "lock order", "acquisition order(s)",
            summary["lock_order"], conc.analyze().lock_graph,
        )
    return 0


def _run_fsck(args) -> int:
    """``python -m repro.harness fsck [image]``.

    With an image path: check a file written by
    :func:`repro.check.fsck.save_image`.  Without one: build a smoke
    mount, run a short workload, crash it, and fsck the crash image —
    a self-contained end-to-end exercise of the checker.
    """
    from repro.check.fsck import fsck_mount, load_image

    if args.image is not None:
        report = load_image(args.image).fsck()
    else:
        from repro.betrfs.filesystem import make_betrfs
        from repro.workloads.tokubench import tokubench

        fs = make_betrfs("BetrFS v0.6")
        tokubench(fs, SMOKE_SCALE)
        fs.sync()
        report = fsck_mount(fs)
    if not args.quiet or not report.ok:
        print(report.render())
    return 0 if report.ok else 1


def _run_torture(args) -> int:
    """``python -m repro.harness torture --seed N --budget M``.

    Runs the :class:`repro.crashmc.CrashExplorer` over the registered
    workloads and prints the summary as deterministic JSON on stdout —
    no wall time, sorted keys — so CI can diff two fixed-seed runs
    byte-for-byte.  On a violation the first (already shrunk) failing
    schedule is written to ``--torture-out`` and the exit code is 1.

    With ``--verify-order-graph``, a pure-observer order recorder
    rides on every live stack's device and the observed (effect,
    barrier) orderings are checked against the static order graph from
    :mod:`repro.check.durflow` after the sweep; verification speaks
    only on stderr and through the exit code, so the stdout JSON stays
    byte-identical to an unflagged run.
    """
    from repro.crashmc import CrashExplorer
    from repro.crashmc.shrink import repro_dict, save_repro

    repro_out = args.torture_out or "crashmc-repro.json"
    order_log = None
    if args.verify_order_graph:
        from repro.check.order import OrderLog

        order_log = OrderLog()
    obs = Observability()
    with session(obs):
        summary = CrashExplorer(seed=args.seed, budget=args.budget, order_log=order_log).run()
    print(json.dumps(summary.to_dict(), indent=1, sort_keys=True))
    _write_exports(obs, args)
    line = (
        f"torture: {summary.cases} crash states across {len(summary.workloads)} "
        f"workloads, {sum(w.plans_covered for w in summary.workloads)} of "
        f"{sum(w.plans_enumerated for w in summary.workloads)} plans covered"
    )
    if summary.violations:
        if not args.quiet:
            print(f"{line}, {summary.violations} violation(s)", file=sys.stderr)
        first = summary.failures[0]
        save_repro(
            repro_out,
            repro_dict(
                first.workload, args.seed, first.op_index, first.shrunk,
                stage=first.stage, detail=first.detail,
            ),
        )
        print(
            f"crash-consistency VIOLATION at {first.workload} "
            f"op {first.op_index} ({first.op}): {first.detail}",
            file=sys.stderr,
        )
        print(
            f"shrunk repro written to {repro_out}; replay with: "
            f"python -m repro.crashmc.shrink {repro_out}",
            file=sys.stderr,
        )
        return 1
    if order_log is not None:
        from repro.check import durflow

        if _check_coverage(
            "torture", "order", "ordering", "(effect, barrier) ordering(s)",
            order_log.observed(), durflow.analyze().order_graph,
        ):
            return 1
    if not args.quiet:
        print(f"{line}, no violations", file=sys.stderr)
    return 0


#: target -> (one-line help, the options it reads, runner(args) -> exit code)
TARGETS = {
    "table1": (
        "Table 1: the file-system comparison",
        _TABLES,
        _paper(lambda a, s, v: (_microbenches(a, s, v, TABLE1_SYSTEMS), {})),
    ),
    "table3": (
        "Table 3: the per-optimization rows",
        _TABLES,
        _paper(lambda a, s, v: (_microbenches(a, s, v, TABLE3_SYSTEMS), {})),
    ),
    "fig2": (
        "Figures 2a-2h: the application benchmarks",
        _FIGURES,
        _paper(lambda a, s, v: ({}, _figures(a, s, v))),
    ),
    "hdd": (
        "the prior-work 'compleat on an HDD' context for BetrFS v0.4",
        _TABLES,
        _paper(_hdd),
    ),
    "all": (
        "table3 + fig2, with EXPERIMENTS.md under --out; --check diffs both "
        "against the committed results/",
        _FIGURES + ("--check",),
        _paper(
            lambda a, s, v: (_microbenches(a, s, v, TABLE3_SYSTEMS), _figures(a, s, v)),
            experiments_md=True,
        ),
    ),
    "ftl": (
        "age a tiny flash device and report WA / GC-pause / erase telemetry",
        ("--scale", "--systems") + _EXPORTS,
        _paper(_ftl),
    ),
    "stats": (
        "run a workload and print the per-layer observability tables "
        "plus the sim-vs-wall overhead map",
        ("--scale", "--figures", "--systems") + _EXPORTS,
        _paper(_stats, wall=True),
    ),
    "fsck": (
        "check a saved device image (see repro.check.fsck)",
        ("image", "--quiet"),
        _run_fsck,
    ),
    "torture": (
        "systematic crash-state exploration (see repro.crashmc)",
        ("--seed", "--budget", "--torture-out", "--metrics-out", "--quiet",
         "--verify-order-graph"),
        _run_torture,
    ),
    "mt": (
        "a multi-tenant workload under the deterministic session scheduler, "
        "optionally sharded (see repro.sched, repro.shard); prints a "
        "byte-diffable JSON summary",
        ("--scale", "--sessions", "--seed", "--policy", "--ops-per-session",
         "--shards", "--workload", "--metrics-out", "--quiet",
         "--verify-lock-graph"),
        _run_mt,
    ),
}


if __name__ == "__main__":
    raise SystemExit(main())
