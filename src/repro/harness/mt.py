"""``python -m repro.harness mt`` — the multi-tenant scale-out runs.

Drives a multi-tenant workload (``mailserver_mt`` or ``webserver_mt``)
on a fresh BetrFS v0.6 mount — unsharded, or partitioned over N
Bε-tree volumes with ``--shards N`` — and emits a deterministic JSON
summary: sorted keys, no wall time, simulated quantities only, plus a
sha256 over the final device image — so two same-seed runs can be
byte-diffed in CI, and a one-session run can be checked bit-for-bit
against the sequential benchmark.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.workloads.scale import WorkloadScale

#: Summary schema identifier; bump when the JSON shape changes.
#: v2: added ``lock_order`` — observed (held, acquired) key pairs.
#: v3: added ``workload`` and ``shards`` (count/mode/loads/imbalance/
#: cross_renames), and per-session ``affinity``.
#: v4: dropped ``shards.mode`` — hash is the only partitioning policy.
SCHEMA = "repro-mt v4"

#: Multi-tenant workloads ``run_mt`` can drive.
MT_WORKLOADS = ("mailserver_mt", "webserver_mt")

#: Latency percentiles reported per session.
PERCENTILES = (50.0, 99.0)


def device_sha256(device) -> str:
    """Content hash of the device image: every populated extent as
    ``offset (8-byte LE) + data``, in offset order — hashed segment by
    segment, the store never joined."""
    h = hashlib.sha256()
    for off, segments in device.store.snapshot():
        h.update(off.to_bytes(8, "little"))
        for segment in segments:
            h.update(segment)
    return h.hexdigest()


def run_mt(
    scale: WorkloadScale,
    sessions: int = 8,
    seed: int = 11,
    policy: str = "fifo",
    ops_per_session: int = 0,
    shards: int = 0,
    workload: str = "mailserver_mt",
) -> Dict[str, object]:
    """Run the workload and build the summary dict (JSON-ready).

    ``shards=0`` mounts the plain (unsharded) filesystem; ``shards>=1``
    mounts :class:`~repro.shard.mount.ShardedBetrFS` with that many
    volume slots.
    """
    from repro.betrfs.filesystem import make_betrfs
    from repro.workloads.mailserver import mailserver_mt
    from repro.workloads.webserver_mt import webserver_mt

    if workload not in MT_WORKLOADS:
        raise KeyError(
            f"unknown mt workload {workload!r}; choose from {MT_WORKLOADS}"
        )
    run_workload = mailserver_mt if workload == "mailserver_mt" else webserver_mt
    if ops_per_session <= 0:
        ops_per_session = max(1, scale.mail_ops // sessions)
    if shards > 0:
        from repro.shard.mount import make_sharded_betrfs

        fs = make_sharded_betrfs("BetrFS v0.6", shards=shards)
    else:
        fs = make_betrfs("BetrFS v0.6")
    sched = run_workload(
        fs,
        scale,
        sessions=sessions,
        seed=seed,
        policy=policy,
        ops_per_session=ops_per_session,
    )
    # Sequential-comparable window: workload start (post-setup) through
    # the final sync, on the simulated clock.
    elapsed = fs.clock.now - sched.started
    ops = sched.total_ops()
    per_session: List[Dict[str, object]] = []
    for s in sched.sessions:
        per_session.append(
            {
                "name": s.name,
                "affinity": s.affinity,
                "ops": s.ops,
                "p50_seconds": s.percentile(PERCENTILES[0]),
                "p99_seconds": s.percentile(PERCENTILES[1]),
                "service_seconds": s.service,
                "wait_seconds": s.wait_total,
                "max_wait_seconds": s.max_wait,
                "blocks": {k: s.blocks[k] for k in sorted(s.blocks)},
            }
        )
    shard_summary = None
    if shards > 0:
        shard_summary = {
            "count": fs.shards,
            "loads": list(fs.backend.loads),
            "imbalance": fs.load_imbalance(),
            "cross_renames": fs.backend.cross_renames,
        }
    return {
        "schema": SCHEMA,
        "workload": workload,
        "scale": scale.name,
        "sessions": sessions,
        "seed": seed,
        "policy": policy,
        "shards": shard_summary,
        "ops": ops,
        "ops_per_session": ops_per_session,
        "sim_seconds": elapsed,
        "throughput_ops_per_sec": (ops / elapsed) if elapsed > 0 else 0.0,
        "switches": sched.switches,
        "dispatches": sched.dispatches,
        "blocks": sched.block_totals(),
        "locks": {
            "acquisitions": sched.locks.acquisitions,
            "contentions": sched.locks.contentions,
        },
        # Every runtime may-hold-while-acquiring order; must be covered
        # by the repro.check.conc static lock graph (--verify-lock-graph).
        "lock_order": [list(pair) for pair in sorted(sched.lock_order)],
        "fairness": {
            "jain_service": sched.jain_service(),
            "jain_ops": sched.jain_ops(),
            "max_wait_seconds": sched.max_wait(),
        },
        "per_session": per_session,
        "device_sha256": device_sha256(fs.device),
    }


def to_json(summary: Dict[str, object]) -> str:
    """Canonical rendering: sorted keys, stable float repr, newline."""
    return json.dumps(summary, indent=1, sort_keys=True) + "\n"


def render_fairness(summary: Dict[str, object]) -> str:
    """Short human-readable fairness report (stderr companion)."""
    fair = summary["fairness"]
    lines = [
        f"mt: {summary['workload']} {summary['sessions']} sessions x "
        f"{summary['ops_per_session']} ops "
        f"(policy={summary['policy']}, seed={summary['seed']})",
        f"  ops={summary['ops']} sim={summary['sim_seconds']:.3f}s "
        f"throughput={summary['throughput_ops_per_sec']:.0f} ops/s",
        f"  switches={summary['switches']} "
        f"lock contentions={summary['locks']['contentions']}",
        f"  jain(service)={fair['jain_service']:.4f} "
        f"jain(ops)={fair['jain_ops']:.4f} "
        f"max wait={fair['max_wait_seconds'] * 1e3:.2f}ms",
    ]
    shards = summary.get("shards")
    if shards:
        lines.append(
            f"  shards={shards['count']} "
            f"loads={shards['loads']} "
            f"imbalance={shards['imbalance']:.2f} "
            f"cross renames={shards['cross_renames']}"
        )
    worst = max(
        summary["per_session"],
        key=lambda s: s["p99_seconds"],
        default=None,
    )
    if worst is not None:
        lines.append(
            f"  slowest p99: {worst['name']} "
            f"p50={worst['p50_seconds'] * 1e3:.2f}ms "
            f"p99={worst['p99_seconds'] * 1e3:.2f}ms"
        )
    return "\n".join(lines)
