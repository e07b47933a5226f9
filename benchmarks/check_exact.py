#!/usr/bin/env python3
"""Zero-tolerance gate on perfbench's machine-independent rows.

    python benchmarks/check_exact.py            # regenerate and diff
    python benchmarks/check_exact.py --bless    # rewrite the snapshot

The simulation is deterministic: for one seed, every row perfbench
reports on the *sim* clock — the sim end-to-end metrics, each layer's
``calls`` / ``sim_self_s``, every count, the device image's sha256 — is
a pure function of the simulator, the same on every machine.  This
script runs

    python -m perfbench --traced --seed 11 --seconds 1

over all seven ``BENCHMARK.json`` workloads (run length only buys
host-clock repetitions; ~45 s), keeps the rows ``perfbench.compare``
calls exact, and compares them with
``benchmarks/perfbench_exact_seed11.json`` for equality.  Host rows
are not looked at.  A difference means the simulation changed: a
PR that intends one re-blesses and says which rows moved.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SNAPSHOT = os.path.join(ROOT, "benchmarks", "perfbench_exact_seed11.json")
SEED = 11
WORKLOADS = (
    "smallfile_create", "mail_fsync", "tree_scan_cold", "bigfile_rw",
    "mail_mt8", "mail_mt8_shard4", "mail_fsync_ext4",
)


def exact_rows(document: dict) -> dict:
    """The rows of a ``python -m perfbench --out`` document that repeat
    bit for bit."""
    sys.path.insert(0, ROOT)
    from perfbench.metrics import END_TO_END, PER_LAYER

    workloads: Dict[str, dict] = {}
    for name, record in document["workloads"].items():
        rows = {key: record[key] for key in ("trace_sha256", "device_sha256", "ops", "calls")}
        for table, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric in metrics:
                if metric.exact:
                    rows[metric.name] = record[table][metric.name]["value"]
        workloads[name] = rows
    return {"seed": document["header"]["seed"], "workloads": workloads}


def regenerate() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "perfbench.json")
        cmd = [sys.executable, "-m", "perfbench", "--traced", "--seed", str(SEED),
               "--seconds", "1", "--out", out]
        for name in WORKLOADS:
            cmd += ["--workload", name]
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        with open(out) as fh:
            return exact_rows(json.load(fh))


def differences(blessed: dict, now: dict) -> List[str]:
    lines = []
    for name in sorted(set(blessed["workloads"]) | set(now["workloads"])):
        old, new = blessed["workloads"].get(name, {}), now["workloads"].get(name, {})
        for row in sorted(set(old) | set(new)):
            if old.get(row) != new.get(row):
                lines.append(f"{name} {row}: {old.get(row)!r} -> {new.get(row)!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bless", action="store_true", help="rewrite the snapshot")
    args = parser.parse_args(argv)
    now = regenerate()
    if args.bless:
        with open(SNAPSHOT, "w") as fh:
            json.dump(now, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"check_exact: blessed {os.path.relpath(SNAPSHOT, ROOT)}")
        return 0
    with open(SNAPSHOT) as fh:
        moved = differences(json.load(fh), now)
    for line in moved:
        print(line, file=sys.stderr)
    rows = sum(len(rows) for rows in now["workloads"].values())
    print(f"check_exact: {len(moved)} of {rows} exact rows differ from the snapshot")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
