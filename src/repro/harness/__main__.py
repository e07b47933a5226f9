"""CLI: regenerate the paper's tables and figures.

Examples::

    python -m repro.harness table3
    python -m repro.harness fig2 --figures fig2c fig2d
    python -m repro.harness all --out results/
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.harness.figures import FIGURES, render_figures, run_figures
from repro.harness.paperdata import PAPER_TABLE3
from repro.obs import Observability, session
from repro.obs.prof import Stopwatch
from repro.harness.report import render_experiments_md, write_results_json
from repro.harness.runner import (
    FIG2_SYSTEMS,
    TABLE1_SYSTEMS,
    TABLE3_SYSTEMS,
    run_hdd_context,
    run_microbenches,
)
from repro.harness.tables import render_vs_paper
from repro.workloads.scale import DEFAULT_SCALE, SMOKE_SCALE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the evaluation of BetrFS v0.6 (EuroSys '22)",
    )
    parser.add_argument(
        "target",
        choices=[
            "table1", "table3", "fig2", "hdd", "all", "stats", "ftl",
            "fsck", "torture", "bench", "mt",
        ],
        help="which artifact to regenerate (hdd = the prior-work "
        "'compleat on an HDD' context for BetrFS v0.4; stats = run a "
        "workload and print the per-layer observability tables plus "
        "the sim-vs-wall overhead map; ftl = age a tiny flash device "
        "and report WA / GC-pause / erase telemetry; fsck = check a "
        "saved device image, see repro.check.fsck; torture = "
        "systematic crash-state exploration, see repro.crashmc; "
        "bench = wall-clock benchmark suite emitting BENCH_*.json, "
        "see repro.harness.bench; mt = a multi-tenant workload "
        "(mailserver or webserver, optionally sharded over N volumes "
        "with --shards) under the deterministic session scheduler, "
        "see repro.sched and repro.shard — "
        "prints a byte-diffable JSON summary with per-session latency "
        "percentiles and fairness gauges)",
    )
    parser.add_argument(
        "image",
        nargs="?",
        default=None,
        help="device image file for the fsck target (written with "
        "repro.check.fsck.save_image); omit to fsck a freshly-built "
        "smoke image",
    )
    parser.add_argument(
        "--scale",
        choices=["default", "smoke"],
        default="default",
        help="workload scale (smoke is for quick checks)",
    )
    parser.add_argument(
        "--figures",
        nargs="*",
        choices=sorted(FIGURES),
        help="subset of figures for the fig2 target",
    )
    parser.add_argument(
        "--systems", nargs="*", help="subset of file systems to run"
    )
    parser.add_argument(
        "--out", default=None, help="directory for results JSON / EXPERIMENTS.md"
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="METRICS_JSON",
        help="write per-mount metrics (counters, latency percentiles) "
        "as JSON after the run",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="TRACE_JSON",
        help="record spans and write a Chrome trace_event JSON "
        "(chrome://tracing / Perfetto) after the run",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root RNG seed for the torture target (every derived "
        "stream is integer-keyed off it; same seed = bit-identical "
        "summary)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=200,
        help="crash states to explore for the torture target, split "
        "across the workloads",
    )
    parser.add_argument(
        "--torture-out",
        default=None,
        metavar="REPRO_JSON",
        help="where the torture target writes the shrunk repro file "
        "if a violation is found (default: crashmc-repro.json)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="timed repetitions per workload for the bench target",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="bench: compare with the committed BENCH_<scale>.json and exit "
        "non-zero on any simulated difference (the CI perf gate; wall and "
        "memory ratios are printed as advisory lines)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="bench: run one extra profiled rep per workload and print "
        "the per-layer wall-time attribution (repro.obs.prof); with "
        "--out, also writes collapsed-stack PROF_*.folded files",
    )
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="bench: subset of bench workloads to run",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="mt: number of concurrent client sessions",
    )
    parser.add_argument(
        "--policy",
        choices=["fifo", "rr", "lottery"],
        default="fifo",
        help="mt: scheduling policy (see repro.sched.policy)",
    )
    parser.add_argument(
        "--ops-per-session",
        type=int,
        default=0,
        help="mt: ops per session (0 = split the scale's sequential "
        "op count across the sessions)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="mt: partition the namespace over N Bε-tree volumes "
        "(repro.shard); 0 = the plain unsharded mount",
    )
    parser.add_argument(
        "--shard-mode",
        choices=["hash", "range"],
        default="hash",
        help="mt: shard-map partitioning mode (hash = crc32 of the "
        "parent directory; range = lexicographic boundaries)",
    )
    parser.add_argument(
        "--workload",
        choices=["mailserver_mt", "webserver_mt"],
        default="mailserver_mt",
        help="mt: which multi-tenant workload to drive",
    )
    parser.add_argument(
        "--verify-lock-graph",
        action="store_true",
        help="mt: cross-check every observed lock acquisition order "
        "against the repro.check.conc static lock graph (exit 1 on "
        "an uncovered pair)",
    )
    parser.add_argument(
        "--verify-order-graph",
        action="store_true",
        help="torture: cross-check every observed (effect, barrier) "
        "ordering against the repro.check.durflow static order graph "
        "(exit 1 on an uncovered pair)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.target == "mt":
        if args.image is not None:
            parser.error("an image argument is only valid for the fsck target")
        return _run_mt(args)

    if args.target == "bench":
        if args.image is not None:
            parser.error("an image argument is only valid for the fsck target")
        return _run_bench(args)
    if args.target == "fsck":
        return _run_fsck(args.image, verbose=not args.quiet)
    if args.target == "torture":
        if args.image is not None:
            parser.error("an image argument is only valid for the fsck target")
        return _run_torture(
            seed=args.seed,
            budget=args.budget,
            repro_out=args.torture_out or "crashmc-repro.json",
            metrics_out=args.metrics_out,
            verbose=not args.quiet,
            verify_order=args.verify_order_graph,
        )
    if args.image is not None:
        parser.error("an image argument is only valid for the fsck target")

    scale = DEFAULT_SCALE if args.scale == "default" else SMOKE_SCALE
    verbose = not args.quiet
    # Monotonic wall timer via the sanctioned provider — time.time()
    # can step backwards across clock adjustments.
    watch = Stopwatch()
    tables = {}
    figures = {}

    # The stats target always records dual-clock spans so it can print
    # the per-layer sim-vs-wall overhead map alongside the stats table.
    wall_profiling = args.target == "stats"
    obs = Observability(
        tracing=args.trace_out is not None or wall_profiling,
        wall=wall_profiling,
    )
    with session(obs):
        if args.target in ("table1", "table3", "all"):
            systems = args.systems or (
                TABLE1_SYSTEMS if args.target == "table1" else TABLE3_SYSTEMS
            )
            tables = run_microbenches(systems, scale, verbose=verbose)
            print(render_vs_paper(tables, list(tables), f"{args.target}: measured (paper)"))
        if args.target == "hdd":
            rows = run_hdd_context(systems=args.systems, scale=scale, verbose=verbose)
            print(
                render_vs_paper(
                    rows, list(rows), "HDD context: measured (paper SSD values for reference)"
                )
            )
            tables = rows
        if args.target in ("fig2", "all"):
            figures = run_figures(
                figures=args.figures, systems=args.systems, scale=scale, verbose=verbose
            )
            print(render_figures(figures))
        if args.target == "ftl":
            from repro.harness.ftl import run_ftl_smoke

            systems = args.systems or ["BetrFS v0.6"]
            tables = {
                name: run_ftl_smoke(scale=scale, system=name, verbose=verbose)
                for name in systems
            }
            print(json.dumps(tables, indent=1))
        if args.target == "stats":
            # Run a representative workload (default: the tar figure)
            # and print the per-layer observability tables.
            figures = run_figures(
                figures=args.figures or ["fig2a"],
                systems=args.systems,
                scale=scale,
                verbose=verbose,
            )
            print(obs.render_stats())
            print()
            print(obs.render_overhead())

    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        obs.write_trace(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_results_json(
            os.path.join(args.out, "results.json"), tables, figures
        )
        if args.target == "all":
            with open(os.path.join(args.out, "EXPERIMENTS.md"), "w") as fh:
                fh.write(render_experiments_md(tables, figures, scale.name))
        print(f"results written to {args.out}/")
    print(f"total wall time: {watch.elapsed:.1f}s", file=sys.stderr)
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

    scale = DEFAULT_SCALE if args.scale == "default" else SMOKE_SCALE
    obs = Observability()
    with session(obs):
        summary = run_mt(
            scale,
            sessions=args.sessions,
            seed=args.seed,
            policy=args.policy,
            ops_per_session=args.ops_per_session,
            shards=args.shards,
            mode=args.shard_mode,
            workload=args.workload,
        )
        stats = obs.render_stats()
    print(to_json(summary), end="")
    if not args.quiet:
        print(stats, file=sys.stderr)
        print(render_fairness(summary), file=sys.stderr)
    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.verify_lock_graph:
        from repro.check import conc

        graph = conc.analyze().lock_graph
        uncovered = [
            (held, acquired)
            for held, acquired in summary["lock_order"]
            if not graph.covers(held, acquired)
        ]
        if uncovered:
            for held, acquired in uncovered:
                print(
                    f"mt: lock order {held!r} -> {acquired!r} observed at "
                    "runtime but absent from the static lock graph",
                    file=sys.stderr,
                )
            return 1
        print(
            f"mt: lock graph verified — {len(summary['lock_order'])} "
            "observed acquisition order(s) all covered statically",
            file=sys.stderr,
        )
    return 0


def _run_bench(args) -> int:
    """``python -m repro.harness bench [--check] [--out DIR]``.

    Runs the deterministic benchmark suite (see
    :mod:`repro.harness.bench`), prints the schema-versioned summary
    JSON on stdout, optionally writes ``BENCH_<scale>.json`` under
    ``--out`` (``--out .`` re-blesses the committed file), and with
    ``--check`` compares with the committed ``BENCH_<scale>.json`` —
    exit 1 on any simulated difference.
    """
    from repro.harness.bench import (
        advisory_ratios,
        check_against_baseline,
        load_baseline,
        profile_workloads,
        run_bench,
        scale_by_name,
        to_json,
        write_artifact,
    )

    scale = scale_by_name(args.scale)
    verbose = not args.quiet
    if verbose:
        print(
            f"bench: scale={scale.name} reps={args.reps} "
            f"workloads={args.workloads or 'all'}",
            file=sys.stderr,
        )
    if args.check:
        # Read before the run: ``--out .`` would overwrite it.
        try:
            committed = load_baseline(scale.name)
        except FileNotFoundError:
            print(
                f"bench --check: no committed BENCH_{scale.name}.json — write "
                f"one with `python -m repro.harness bench --scale {scale.name} "
                "--out .`",
                file=sys.stderr,
            )
            return 2
    summary = run_bench(
        scale=scale,
        reps=args.reps,
        workloads=args.workloads,
        verbose=verbose,
    )
    print(to_json(summary), end="")
    if args.out:
        path = write_artifact(summary, args.out)
        print(f"bench artifact written to {path}", file=sys.stderr)
    if args.profile:
        for name, prof in profile_workloads(scale, args.workloads).items():
            print(f"\n--- {name} ---\n{prof.render()}", file=sys.stderr)
            if args.out:
                folded = os.path.join(args.out, f"PROF_{scale.name}_{name}.folded")
                with open(folded, "w", encoding="utf-8") as fh:
                    fh.write(prof.collapsed())
                print(f"collapsed stacks written to {folded}", file=sys.stderr)
    if args.check:
        for line in advisory_ratios(summary, committed):
            print(f"bench --check (advisory): {line}", file=sys.stderr)
        failures = check_against_baseline(summary, committed)
        for failure in failures:
            print(f"BENCH MISMATCH: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"bench --check: {len(summary['workloads'])} workload(s) match "
            f"the committed BENCH_{scale.name}.json",
            file=sys.stderr,
        )
    return 0


def _run_fsck(image_path, verbose: bool = True) -> int:
    """``python -m repro.harness fsck [image]``.

    With an image path: check a file written by
    :func:`repro.check.fsck.save_image`.  Without one: build a smoke
    mount, run a short workload, crash it, and fsck the crash image —
    a self-contained end-to-end exercise of the checker.
    """
    from repro.check.fsck import fsck_mount, load_image

    if image_path is not None:
        report = load_image(image_path).fsck()
    else:
        from repro.betrfs.filesystem import make_betrfs
        from repro.workloads.tokubench import tokubench

        fs = make_betrfs("BetrFS v0.6")
        tokubench(fs, SMOKE_SCALE)
        fs.sync()
        report = fsck_mount(fs)
    if verbose or not report.ok:
        print(report.render())
    return 0 if report.ok else 1


def _run_torture(
    seed: int,
    budget: int,
    repro_out: str,
    metrics_out=None,
    verbose: bool = True,
    verify_order: bool = False,
) -> int:
    """``python -m repro.harness torture --seed N --budget M``.

    Runs the :class:`repro.crashmc.CrashExplorer` over the registered
    workloads and prints the summary as deterministic JSON on stdout —
    no wall time, sorted keys — so CI can diff two fixed-seed runs
    byte-for-byte.  On a violation the first (already shrunk) failing
    schedule is written to ``repro_out`` and the exit code is 1.

    With ``--verify-order-graph``, a pure-observer order recorder
    rides on every live stack's device and the observed (effect,
    barrier) orderings are checked against the static order graph from
    :mod:`repro.check.durflow` after the sweep; verification speaks
    only on stderr and through the exit code, so the stdout JSON stays
    byte-identical to an unflagged run.
    """
    from repro.crashmc import CrashExplorer
    from repro.crashmc.shrink import repro_dict, save_repro

    order_log = None
    if verify_order:
        from repro.check.order import OrderLog

        order_log = OrderLog()
    obs = Observability()
    with session(obs):
        explorer = CrashExplorer(seed=seed, budget=budget, order_log=order_log)
        summary = explorer.run()
    print(json.dumps(summary.to_dict(), indent=1, sort_keys=True))
    if metrics_out:
        obs.write_metrics(metrics_out)
        print(f"metrics written to {metrics_out}", file=sys.stderr)
    if summary.violations:
        first = summary.failures[0]
        save_repro(
            repro_out,
            repro_dict(
                first.workload,
                seed,
                first.op_index,
                first.shrunk,
                stage=first.stage,
                detail=first.detail,
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

        graph = durflow.analyze().order_graph
        observed = order_log.observed()
        uncovered = [
            (effect, barrier)
            for effect, barrier in observed
            if not graph.covers(effect, barrier)
        ]
        if uncovered:
            for effect, barrier in uncovered:
                print(
                    f"torture: ordering {effect!r} -> {barrier!r} observed "
                    "at runtime but absent from the static order graph",
                    file=sys.stderr,
                )
            return 1
        print(
            f"torture: order graph verified — {len(observed)} observed "
            "(effect, barrier) ordering(s) all covered statically",
            file=sys.stderr,
        )
    if verbose:
        print(
            f"torture: {summary.cases} crash states across "
            f"{len(summary.workloads)} workloads, no violations",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
