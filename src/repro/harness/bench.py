"""Deterministic wall-clock benchmark suite (``python -m repro.harness bench``).

Times how long the *simulator itself* takes — real seconds, not
simulated ones — on a fixed workload set (TokuBench small-file
creation, the Dovecot-style mailserver, and the Figure 2a tar/untar
application benchmark), so hot-path optimization work can be ordered
and gated by measurement instead of guesswork (ROADMAP north star:
"Performance that is measured").

Design rules, in the spirit of the replay-trace evaluation-framework
and StorRep papers (PAPERS.md): results are **machine-readable,
schema-versioned experiment artifacts** (``BENCH_<scale>.json``), the
run is **repeated** (min/median over N reps, a fresh mount per rep),
and the deterministic core of the summary — simulated seconds, op
counts, workload metrics — is byte-identical run to run once the
volatile wall/memory fields are stripped (:func:`strip_volatile`),
which the test suite asserts.  Peak memory comes from a dedicated
:mod:`tracemalloc` rep so allocation tracking never pollutes the timed
reps.

``bench --check`` compares the summary with the committed
``BENCH_<scale>.json`` at the repository root and exits non-zero on any
simulated difference — the CI perf gate; wall and memory ratios are
printed as advisory lines.  Re-blessing is ``bench --scale <s> --out .``
(see DESIGN.md, "Performance observability").

All wall-clock reads go through :mod:`repro.obs.prof`, the package's
single lint-sanctioned wall-clock provider.
"""

from __future__ import annotations

import json
import os
import statistics
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.runner import make_mount
from repro.obs.prof import WallProfiler, wall_ns
from repro.workloads.archive import tar_tree, untar_tree
from repro.workloads.mailserver import mailserver, mailserver_mt
from repro.workloads.scale import DEFAULT_SCALE, SMOKE_SCALE, WorkloadScale
from repro.workloads.tokubench import tokubench
from repro.workloads.trees import linux_like_tree

#: Schema of the emitted artifact; bump on breaking shape changes.
SCHEMA = {"name": "repro-bench", "version": 1}

#: Summary keys that legitimately differ run-to-run and machine-to-
#: machine; everything else must be bit-identical (determinism test).
VOLATILE_KEYS = frozenset(
    {"wall_seconds", "ops_per_wall_second", "peak_mem_bytes"}
)

@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark: a driver plus its nominal operation count."""

    name: str
    run: Callable[[Any, WorkloadScale], float]
    ops: Callable[[WorkloadScale], int]
    metric: str  # what the driver's return value measures
    system: str = "BetrFS v0.6"


def _fig2a_tar(mount, scale: WorkloadScale) -> float:
    """Figure 2a subset: untar then tar a Linux-like tree (sim seconds)."""
    spec = linux_like_tree("/src", scale.tree_files, scale.tree_bytes)
    untar = untar_tree(mount, spec)
    tar = tar_tree(mount, spec)
    return untar + tar


def _mailserver_mt_bench(mount, scale: WorkloadScale) -> float:
    """Multi-tenant mailserver: 8 scheduled sessions sharing the mount
    (see repro.sched); returns aggregate ops/simulated-second."""
    sched = mailserver_mt(mount, scale, sessions=8, seed=11, policy="fifo")
    elapsed = mount.clock.now - sched.started
    return sched.total_ops() / elapsed if elapsed > 0 else 0.0


BENCH_WORKLOADS: Tuple[BenchWorkload, ...] = (
    BenchWorkload(
        "tokubench",
        tokubench,
        lambda s: s.toku_files,
        metric="sim_kops_per_sec",
    ),
    BenchWorkload(
        "mailserver",
        mailserver,
        lambda s: s.mail_ops,
        metric="sim_ops_per_sec",
    ),
    BenchWorkload(
        "fig2a_tar",
        _fig2a_tar,
        lambda s: 2 * s.tree_files,
        metric="sim_seconds_untar_plus_tar",
    ),
    BenchWorkload(
        "mailserver_mt",
        _mailserver_mt_bench,
        lambda s: s.mail_ops,
        metric="sim_ops_per_sec",
    ),
)


def scale_by_name(name: str) -> WorkloadScale:
    return DEFAULT_SCALE if name == "default" else SMOKE_SCALE


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _run_once(wl: BenchWorkload, scale: WorkloadScale) -> Tuple[float, float]:
    """One fresh-mount execution; returns (workload metric, sim seconds)."""
    mount = make_mount(wl.system, scale)
    metric = wl.run(mount, scale)
    return metric, mount.clock.now


def bench_workload(
    wl: BenchWorkload,
    scale: WorkloadScale,
    reps: int = 3,
    memory: bool = True,
) -> Dict[str, Any]:
    """Run one workload ``reps`` times; returns its summary entry."""
    walls: List[float] = []
    sims: List[float] = []
    metrics: List[float] = []
    for _rep in range(reps):
        t0 = wall_ns()
        metric, sim = _run_once(wl, scale)
        walls.append((wall_ns() - t0) / 1e9)
        sims.append(sim)
        metrics.append(metric)
    entry: Dict[str, Any] = {
        "system": wl.system,
        "ops": wl.ops(scale),
        "metric": wl.metric,
        "workload_metric": metrics[0],
        "simulated_seconds": sims[0],
        # Cross-rep determinism, asserted inline so every bench run is
        # also a determinism check: same seed, same sim trajectory.
        "sim_deterministic": len(set(sims)) == 1 and len(set(metrics)) == 1,
        "ops_per_sim_second": wl.ops(scale) / sims[0] if sims[0] > 0 else None,
        "wall_seconds": {
            "min": min(walls),
            "median": statistics.median(walls),
            "all": walls,
        },
        "ops_per_wall_second": wl.ops(scale) / statistics.median(walls),
    }
    if memory:
        # Dedicated rep: tracemalloc's bookkeeping roughly doubles the
        # run time, so it must never overlap the timed reps.
        tracemalloc.start()
        _run_once(wl, scale)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        entry["peak_mem_bytes"] = peak
    return entry


def run_bench(
    scale: WorkloadScale = SMOKE_SCALE,
    reps: int = 3,
    memory: bool = True,
    workloads: Optional[List[str]] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the suite; returns the schema-versioned summary dict."""
    selected = [
        wl for wl in BENCH_WORKLOADS
        if workloads is None or wl.name in workloads
    ]
    if workloads is not None:
        unknown = set(workloads) - {wl.name for wl in selected}
        if unknown:
            raise KeyError(f"unknown bench workload(s): {sorted(unknown)}")
    out: Dict[str, Any] = {
        "schema": dict(SCHEMA),
        "scale": scale.name,
        "reps": reps,
        "workloads": {},
    }
    for wl in selected:
        entry = bench_workload(wl, scale, reps=reps, memory=memory)
        out["workloads"][wl.name] = entry
        if verbose:
            wall = entry["wall_seconds"]
            mem = entry.get("peak_mem_bytes")
            print(
                f"  {wl.name:12s} wall med {wall['median']:8.3f}s "
                f"(min {wall['min']:.3f}s)  sim {entry['simulated_seconds']:10.3f}s  "
                f"{entry['ops_per_wall_second']:10.0f} ops/wall-s"
                + (f"  peak {mem >> 20} MiB" if mem is not None else ""),
                flush=True,
            )
    return out


def profile_workloads(
    scale: WorkloadScale,
    workloads: Optional[List[str]] = None,
) -> Dict[str, WallProfiler]:
    """One profiled rep per workload; returns {name: WallProfiler}."""
    out: Dict[str, WallProfiler] = {}
    for wl in BENCH_WORKLOADS:
        if workloads is not None and wl.name not in workloads:
            continue
        prof = WallProfiler()
        with prof:
            _run_once(wl, scale)
        out[wl.name] = prof
    return out


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def to_json(summary: Dict[str, Any]) -> str:
    """Canonical rendering: sorted keys, stable indentation."""
    return json.dumps(summary, indent=1, sort_keys=True) + "\n"


def strip_volatile(value: Any) -> Any:
    """Deep-copy ``value`` without the machine-dependent fields.

    What remains — simulated seconds, op counts, workload metrics,
    schema, scale — must be byte-identical across same-seed runs; the
    determinism tests serialize two stripped summaries and compare the
    bytes.
    """
    if isinstance(value, dict):
        return {
            k: strip_volatile(v)
            for k, v in sorted(value.items())
            if k not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def artifact_name(scale: WorkloadScale) -> str:
    return f"BENCH_{scale.name}.json"


def write_artifact(summary: Dict[str, Any], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, artifact_name(scale_by_name(summary["scale"])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(summary))
    return path


# ----------------------------------------------------------------------
# Gate against the committed trajectory
# ----------------------------------------------------------------------
#: Where the committed ``BENCH_<scale>.json`` files live.
REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)


def load_baseline(scale_name: str) -> Dict[str, Any]:
    """The committed ``BENCH_<scale>.json``."""
    path = os.path.join(REPO_ROOT, artifact_name(scale_by_name(scale_name)))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_against_baseline(
    summary: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """How ``summary`` differs from the committed file (empty = pass).

    Simulated time is machine-independent, so the gate is exact, as
    ``benchmarks/check_exact.py`` is: the same workload set, per
    workload the same simulated seconds to the last bit and the same op
    count, and every rep of this run on one simulated trajectory.
    """
    if committed.get("scale") != summary["scale"]:
        return [
            f"committed BENCH file has no section for scale {summary['scale']!r} "
            f"(it holds {committed.get('scale')!r})"
        ]
    failures: List[str] = []
    blessed_set = committed["workloads"]
    for name in sorted(set(blessed_set) | set(summary["workloads"])):
        blessed = blessed_set.get(name)
        entry = summary["workloads"].get(name)
        if blessed is None:
            failures.append(f"{name}: not in the committed BENCH file")
            continue
        if entry is None:
            failures.append(f"{name}: in the committed BENCH file but missing from this run")
            continue
        if not entry["sim_deterministic"]:
            failures.append(f"{name}: simulated results differ across reps")
        sim, base_sim = entry["simulated_seconds"], blessed["simulated_seconds"]
        if sim != base_sim:
            failures.append(
                f"{name}: simulated-time drift — {sim!r} vs committed {base_sim!r} "
                "(a change means the simulation changed — re-bless if intended)"
            )
        if entry["ops"] != blessed["ops"]:
            failures.append(
                f"{name}: op count {entry['ops']} != committed {blessed['ops']}"
            )
    return failures


def advisory_ratios(
    summary: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Median wall time and peak memory of this run over the committed
    ones, per workload.  Printed, never a failure: host time on another
    machine is noise, and a ratio loose enough to absorb it cannot see
    the change it would guard."""
    lines = []
    for name, entry in sorted(summary["workloads"].items()):
        blessed = committed["workloads"].get(name)
        if blessed is None:
            continue
        wall = entry["wall_seconds"]["median"] / blessed["wall_seconds"]["median"]
        line = f"{name}: wall x{wall:.2f}"
        if "peak_mem_bytes" in entry and blessed.get("peak_mem_bytes"):
            line += f", peak memory x{entry['peak_mem_bytes'] / blessed['peak_mem_bytes']:.2f}"
        lines.append(line)
    return lines
