"""Shrink failing crash plans and replay them from repro files.

When the explorer finds a violating crash state, the raw plan often
selects many writes that have nothing to do with the failure.
:func:`shrink_plan` performs greedy delta-debugging to a **1-minimal**
plan: it repeatedly tries dropping one selected write, the tear, one
bit-flip, or one bad sector, keeping any simplification that still
fails, until no single removal reproduces the violation.

A shrunk failure is written to a **repro file** — a small JSON document
naming the workload, the seed, the crash op, and the plan — which
:func:`replay_repro` turns back into a verdict by rebuilding the exact
stack deterministically: same workload script, same op prefix, same
crash image.  ``python -m repro.harness torture`` writes one on
failure; CI uploads it as an artifact.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from repro.crashmc.plan import CrashPlan

#: Repro-file format version (bump on incompatible changes).
REPRO_VERSION = 1


def shrink_plan(
    plan: CrashPlan,
    still_fails: Callable[[CrashPlan], bool],
    max_probes: int = 200,
) -> CrashPlan:
    """Greedy 1-minimal reduction of a failing plan.

    ``still_fails`` re-runs a candidate and reports whether the
    violation persists; the input ``plan`` is assumed failing.  The
    probe budget bounds worst-case quadratic behaviour on huge plans.
    """
    current = plan
    probes = 0
    shrunk = True
    while shrunk and probes < max_probes:
        shrunk = False
        # Drop the tear first: it is one bit of complexity.
        if current.torn_tail_sectors is not None and probes < max_probes:
            candidate = current.without_tear()
            probes += 1
            if still_fails(candidate):
                current = candidate
                shrunk = True
        for seq in list(current.selected):
            if probes >= max_probes:
                break
            candidate = current.without_seq(seq)
            probes += 1
            if still_fails(candidate):
                current = candidate
                shrunk = True
        for idx in range(len(current.bitflips) - 1, -1, -1):
            if probes >= max_probes:
                break
            candidate = current.without_bitflip(idx)
            probes += 1
            if still_fails(candidate):
                current = candidate
                shrunk = True
        for idx in range(len(current.bad_sectors) - 1, -1, -1):
            if probes >= max_probes:
                break
            candidate = current.without_bad_sector(idx)
            probes += 1
            if still_fails(candidate):
                current = candidate
                shrunk = True
    return current


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------
def repro_dict(
    workload: str, seed: int, op_index: int, plan: CrashPlan,
    stage: str = "", detail: str = "",
) -> Dict[str, Any]:
    return {
        "version": REPRO_VERSION,
        "workload": workload,
        "seed": seed,
        "op_index": op_index,
        "plan": plan.to_dict(),
        "stage": stage,
        "detail": detail,
    }


def save_repro(path: str, repro: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(repro, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_repro(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        repro = json.load(fh)
    version = repro.get("version")
    if version != REPRO_VERSION:
        raise ValueError(f"unsupported repro version {version!r}")
    return repro


def replay_repro(repro: Dict[str, Any]):
    """Rebuild the stack and re-run the crash case a repro file names.

    Runs the workload's ops up to and *including* ``op_index`` (the
    crash op's mutation is begun but not committed — the crash happens
    inside it), materializes the plan's crash image, and returns the
    :class:`~repro.crashmc.explore.CaseResult`.
    """
    from repro.crashmc.explore import run_case, stack_for
    from repro.crashmc.workload import WORKLOADS

    workload = repro["workload"]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = WORKLOADS[workload](int(repro["seed"]))
    op_index = int(repro["op_index"])
    if not 0 <= op_index < len(ops):
        raise ValueError(f"op_index {op_index} out of range 0..{len(ops) - 1}")
    plan = CrashPlan.from_dict(repro["plan"])

    stack, oracle = stack_for(workload)
    for op in ops[:op_index]:
        oracle.begin(op)
        stack.apply(op)
        oracle.commit(op)
    crash_op = ops[op_index]
    oracle.begin(crash_op)
    stack.apply(crash_op)
    return run_case(stack, oracle, plan)


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.crashmc.shrink repro.json`` — replay a repro;
    exit 1 if it is a crash-consistency violation, as ``torture`` does."""
    import argparse

    parser = argparse.ArgumentParser(description="replay a crashmc repro file")
    parser.add_argument("repro", help="path to a crashmc repro JSON file")
    args = parser.parse_args(argv)
    repro = load_repro(args.repro)
    result = replay_repro(repro)
    print(
        f"[{repro['workload']} seed={repro['seed']} op={repro['op_index']}] "
        f"{result.status}"
        + (f" ({result.stage}: {result.detail})" if result.stage else "")
    )
    return 1 if result.status == "violation" else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
