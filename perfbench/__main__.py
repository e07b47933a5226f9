"""``python -m perfbench`` — the whole suite, one subprocess per workload.

    PYTHONPATH=src python -m perfbench [--seed 11] [--workload W] [--traced] [--out F]

Each workload runs in a fresh ``perfbench/run.py`` process (never two
at once); its table is printed as it finishes and its full record is
collected into one JSON document (``--out``) with a header naming the
schema, seed, python, ``nproc``, git commit and every trace's sha256
and op counts.  Keys are sorted, so two documents can be byte-diffed
once the host-clock fields are dropped (:mod:`perfbench.compare` does
the comparison properly).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List

from perfbench.measure import DETAIL_PREFIX
from perfbench.run import HERE, ROOT
from perfbench.workloads import WORKLOADS

SCHEMA = {"name": "perfbench", "version": 1}


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--traced", action="store_true", help="add the per-layer pass")
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _run_seconds()

    records: Dict[str, dict] = {}
    failures: List[str] = []
    for name in args.workload or list(WORKLOADS):
        cmd = [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(seconds),
            "--trace", "1" if args.traced else "0",
            "--detail",
        ]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        for line in proc.stdout.splitlines():
            if line.startswith(DETAIL_PREFIX):
                records[name] = json.loads(line[len(DETAIL_PREFIX):])
            elif not line.startswith("{"):
                print(line, flush=True)
        if proc.returncode != 0:
            failures.append(name)

    document = {
        "header": {
            "schema": SCHEMA,
            "seed": args.seed,
            "seconds": seconds,
            "sizes": "tiny" if args.tiny else "full",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(),
            "traces": {
                name: {key: rec[key] for key in ("trace_sha256", "ops", "calls")}
                for name, rec in records.items()
            },
        },
        "workloads": records,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if failures:
        print(f"perfbench: FAILED (ops failed or reps disagreed): {failures}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
