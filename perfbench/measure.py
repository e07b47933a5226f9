"""One workload, measured: the reps, the estimators, the report.

``perfbench/run.py`` is the entry point; this module holds what it
does once ``src/`` is importable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench import counts, kernels, traces
from perfbench.metrics import END_TO_END, KERNELS, PER_LAYER
from perfbench.replay import PAGE_CACHE_BYTES, Rep, run_rep
from perfbench.trace import SpanTracer
from perfbench.workloads import WORKLOADS, Workload, build_trace

#: Timed repetitions never fall below this, however short ``--seconds``.
MIN_REPS = 3
DETAIL_PREFIX = "PERFBENCH_DETAIL "

Rows = Dict[str, Dict[str, object]]


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an already sorted sample, as the mean
    of the order statistics from ``q - 0.5`` to ``q + 0.5``.

    A single order statistic is a noisy estimate where the sample is
    sparse — and a tail is: between two same-seed runs the plain p99 of
    ``smallfile_create`` moved by 18 %.  Averaging the ~1 % of samples
    around the rank keeps the meaning and steadies the number.
    """
    n = len(ordered)
    lo = max(0, math.ceil((q - 0.5) / 100.0 * n) - 1)
    hi = min(n, max(lo + 1, math.ceil((q + 0.5) / 100.0 * n)))
    return statistics.fmean(ordered[lo:hi])


def _per_index_median(rows: List[List[float]]) -> List[float]:
    """Column medians of equally long rows."""
    return [statistics.median(column) for column in zip(*rows)]


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def timed_reps(rep: Callable[..., Rep], seconds: float) -> Tuple[Rep, List[Rep]]:
    """One discarded warm-up rep, then reps until ``seconds`` are used
    (each rep's mount build, preload and timed replay count); the rep
    expected to be the last also runs the post-run checks."""
    t0 = time.perf_counter()
    warm = rep()
    rep_cost = time.perf_counter() - t0
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        spent = time.perf_counter() - start
        last = len(reps) + 1 >= MIN_REPS and spent + rep_cost >= seconds
        t0 = time.perf_counter()
        reps.append(rep(verify=last))
        if last:
            return warm, reps
        rep_cost = time.perf_counter() - t0


#: name -> (value or None for "the median of the samples", per-rep
#: samples behind the printed quartiles)
Measured = Dict[str, Tuple[object, List[float]]]


def host_measured(ops: int, reps: List[Rep], setup_once_s: float) -> Measured:
    """The host-clock end-to-end metrics.

    Host durations are calibrated (:mod:`perfbench.calibrate`) and
    then, call by call, the median over the reps: every rep replays the
    identical call sequence, so a burst of machine noise that hits call
    *i* in one rep is outvoted by the other reps' call *i*.
    """

    def robust(attr: str) -> List[float]:
        return _per_index_median([[ns * r.speed for ns in getattr(r, attr)] for r in reps])

    def per_rep(attr: str, q: float) -> List[float]:
        return [percentile(sorted(getattr(r, attr)), q) * r.speed / 1e3 for r in reps]

    wall_s = sum(robust("host_gap_ns")) * 1e-9
    op_ns, call_ns = sorted(robust("host_op_ns")), sorted(robust("host_call_ns"))
    return {
        "setup_s": (None, [(setup_once_s + r.setup_s) * r.speed for r in reps]),
        "host_ops_per_s": (ops / wall_s, [ops / (r.wall_s * r.speed) for r in reps]),
        "host_op_p50_us": (percentile(op_ns, 50) / 1e3, per_rep("host_op_ns", 50)),
        "host_op_p99_us": (percentile(op_ns, 99) / 1e3, per_rep("host_op_ns", 99)),
        "host_call_p50_us": (percentile(call_ns, 50) / 1e3, per_rep("host_call_ns", 50)),
        "host_call_p99_us": (percentile(call_ns, 99) / 1e3, per_rep("host_call_ns", 99)),
        "peak_rss_mb": (None, [reps[-1].peak_rss_kb / 1024.0]),
    }


def sim_measured(ops: int, checked: List[Rep]) -> Measured:
    """The sim-clock metrics and the two verdicts, over every rep run
    (warm-up, timed, traced): all must agree with the first."""
    first = checked[0]
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    agree = all(
        (r.sim_s, r.device_sha256) == (first.sim_s, first.device_sha256) for r in checked
    )
    sim_ops = sorted(first.sim_op_s)
    return {
        "sim_ops_per_s": (None, [ops / first.sim_s]),
        "sim_op_p50_us": (None, [percentile(sim_ops, 50) * 1e6]),
        "sim_op_p99_us": (None, [percentile(sim_ops, 99) * 1e6]),
        "write_amp": (None, [first.write_amp]),
        "fail_frac": (None, [failed / attempted]),
        "sim_reps_agree": (None, [int(agree)]),
    }


def end_to_end_rows(measured: Measured) -> Rows:
    rows: Rows = {}
    for m in END_TO_END:
        value, samples = measured[m.name]
        rows[m.name] = {
            "value": statistics.median(samples) if value is None else value,
            "unit": m.unit,
            "clock": m.clock,
            "quartiles": _quartiles(samples),
            "samples": len(samples),
        }
    return rows


def per_layer_rows(
    workload: Workload, rep: Callable[..., Rep], reps: List[Rep], wall_s: float, spans_out
) -> Tuple[Rows, Rep]:
    """The traced pass: one extra rep under the span tracer, then the
    counts and (``smallfile_create`` only) the kernels."""
    tracer = SpanTracer()
    traced = rep(tracer=tracer, keep=True)
    values: Dict[str, float] = {}
    for layer, row in tracer.layer_table().items():
        for key, value in row.items():
            values[f"{layer}.{key}"] = value
    values.update(counts.collect(traced))
    values["vfs.dup_dirents"] = traced.dup_dirents + reps[-1].dup_dirents
    values["perfbench.trace_overhead_frac"] = traced.wall_s * traced.speed / wall_s - 1.0
    walls = [r.wall_s * r.speed for r in reps]
    half = len(walls) // 2
    values["perfbench.rep_drift"] = statistics.median(walls[-half:]) / statistics.median(
        walls[:half]
    )
    if workload.name == "smallfile_create":
        values.update(kernels.run(traced.mount))
    else:
        values.update(dict.fromkeys(KERNELS, 0.0))
    if spans_out:
        with open(spans_out, "w") as fh:
            for span in tracer.spans():
                fh.write(json.dumps(span, sort_keys=True) + "\n")
    rows = {
        m.name: {"value": values[m.name], "unit": m.unit, "clock": m.clock}
        for m in PER_LAYER
    }
    return rows, traced


def main(argv, t_start: float) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--detail", action="store_true", help="print the full record")
    parser.add_argument("--spans-out", help="write the traced rep's spans (JSON lines)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    trace = build_trace(workload, args.seed, traces.TINY if args.tiny else traces.FULL)
    sha = traces.trace_sha256(trace)
    setup_once_s = time.perf_counter() - t_start

    rep = functools.partial(run_rep, workload, trace)
    warm, reps = timed_reps(rep, args.seconds)
    checked = [warm, *reps]
    ops = trace.timed_ops
    measured = host_measured(ops, reps, setup_once_s)
    per_layer: Rows = {}
    if args.trace:
        wall_s = ops / measured["host_ops_per_s"][0]
        per_layer, traced = per_layer_rows(workload, rep, reps, wall_s, args.spans_out)
        checked.append(traced)
    measured.update(sim_measured(ops, checked))
    end_to_end = end_to_end_rows(measured)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    correct = failed == 0 and end_to_end["sim_reps_agree"]["value"] == 1

    last = reps[-1]
    print(f"perfbench {workload.name} seed={args.seed} trace_sha256={sha[:16]} "
          f"ops={ops} calls={trace.timed_calls} reps={len(reps)}+1 warm-up "
          f"failed={failed}/{attempted}")
    for name, row in end_to_end.items():
        q1, q3 = row["quartiles"]
        print(f"  {name:18s} {row['value']:14.4f} {row['unit']:8s} {row['clock']:4s} "
              f"q1..q3 {q1:.4f}..{q3:.4f} n={row['samples']}")
    print(f"  data / page cache = {last.data_bytes / PAGE_CACHE_BYTES:.2f}x, "
          f"tree / node cache = {last.tree_bytes / workload.tree_cache_bytes:.2f}x")
    for name, row in per_layer.items():
        print(f"  {name:34s} {row['value']:16.6f} {row['unit']:6s} {row['clock']}")

    if args.detail:
        detail = {
            "workload": workload.name,
            "why": workload.why,
            "trace_sha256": sha,
            "ops": ops,
            "calls": trace.timed_calls,
            "reps": len(reps),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "attempted": attempted,
            "failed": failed,
            "sim_s": reps[0].sim_s,
            "device_sha256": reps[0].device_sha256,
            "data_bytes": last.data_bytes,
            "tree_bytes": last.tree_bytes,
        }
        print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    driver_names = {m.name for m in END_TO_END if m.driver}
    shown = per_layer if args.trace else {
        name: row for name, row in end_to_end.items() if name in driver_names
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]} for name, row in shown.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1
