"""``python -m perfbench.compare A.json B.json`` — B against A.

For every workload and end-to-end metric, prints both values, the
relative difference and the metric's bound.  A *host* metric is out of
bound when B is worse than A by more than the bound; a *sim* ("exact")
metric is marked when it differs at all — for one seed it is a pure
function of the simulator, so a difference is a change to the
simulation.  Per-layer sim counts, when both documents carry the
traced pass, are held to the same bit-identity.  Exit code is non-zero
on any out-of-bound or marked row: run it on two documents of the same
commit and seed for the A/A repeatability check.
"""

from __future__ import annotations

import json
import sys
from typing import List

from perfbench.metrics import END_TO_END, PER_LAYER


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(a: dict, b: dict) -> List[str]:
    """Print the table; return one line per offending row."""
    bad: List[str] = []
    if a["header"]["seed"] != b["header"]["seed"]:
        bad.append(
            f"seeds differ ({a['header']['seed']} vs {b['header']['seed']}): "
            "exact metrics are not comparable"
        )
    print(f"{'workload':18s} {'metric':18s} {'A':>14s} {'B':>14s} {'diff':>9s} {'bound':>7s}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            bad.append(f"{name}: missing from B")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wa["trace_sha256"] != wb["trace_sha256"]:
            bad.append(f"{name}: trace sha256 differs — not the same inputs")
        for metric in END_TO_END:
            va = wa["end_to_end"][metric.name]["value"]
            vb = wb["end_to_end"][metric.name]["value"]
            rel = (vb - va) / va if va else float(vb != va)
            worse = -rel if metric.better == "higher" else rel
            if metric.clock == "host":
                flag = "OUT OF BOUND" if worse > metric.bound else ""
                bound = f"{metric.bound:.0%}"
            else:
                flag = "DIFFERS (exact)" if va != vb else ""
                bound = "exact"
            print(
                f"{name:18s} {metric.name:18s} {va:14.4f} {vb:14.4f} "
                f"{rel:+9.2%} {bound:>7s} {flag}"
            )
            if flag:
                bad.append(f"{name} {metric.name}: {va!r} -> {vb!r} {flag}")
        if wa["per_layer"] and wb["per_layer"]:
            moved = [
                m.name
                for m in PER_LAYER
                if m.exact
                and wa["per_layer"][m.name]["value"] != wb["per_layer"][m.name]["value"]
            ]
            print(f"{name:18s} per-layer exact metrics differing: {len(moved)}")
            for metric_name in moved:
                bad.append(
                    f"{name} {metric_name}: "
                    f"{wa['per_layer'][metric_name]['value']!r} -> "
                    f"{wb['per_layer'][metric_name]['value']!r} DIFFERS (exact)"
                )
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m perfbench.compare A.json B.json", file=sys.stderr)
        return 2
    bad = compare(_load(argv[0]), _load(argv[1]))
    for line in bad:
        print(line, file=sys.stderr)
    print("compare: " + (f"{len(bad)} row(s) out of bound" if bad else "all within bound"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
