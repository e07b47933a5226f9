"""Per-layer stats rendering for one mount's observability scope.

Produces the table the ``python -m repro.harness stats`` subcommand
prints: per-layer op counts, simulated-latency percentiles, device
busy fraction and cache hit rates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry

#: Render order for layers (unknown layers append at the end).
LAYER_ORDER = [
    "sched", "vfs", "northbound", "tree", "log", "checkpoint",
    "cache", "storage", "kmem", "device",
]


def _fmt_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    if total <= 0:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def latency_table(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Rows of {layer, op, count, p50, p95, p99, total} for every
    latency histogram in the registry, in layer order."""
    rows = []
    for metric in registry.metrics():
        if not isinstance(metric, Histogram) or metric.unit != "s":
            continue
        if metric.count == 0:
            continue
        extra = {k: v for k, v in metric.labels.items() if k != "layer"}
        op = metric.name
        if extra:
            body = ",".join(f"{k}={v}" for k, v in sorted(extra.items()))
            op = f"{op}{{{body}}}"
        rows.append(
            {
                "layer": metric.layer,
                "op": op,
                "count": metric.count,
                "p50": metric.percentile(50),
                "p95": metric.percentile(95),
                "p99": metric.percentile(99),
                "total": metric.sum,
            }
        )
    rows.sort(key=lambda row: (_layer_rank(row["layer"]), row["op"]))
    return rows


def render_scope(scope) -> str:
    """The per-layer stats table for one mount scope."""
    registry = scope.registry
    lines: List[str] = []
    sim = scope.clock.now
    lines.append(f"=== {scope.name} — simulated {sim:.6f}s "
                 f"(cpu {scope.clock.cpu_time:.6f}s, io_wait {scope.clock.io_wait:.6f}s) ===")

    # Latency percentiles per instrumented op.
    rows = latency_table(registry)
    if rows:
        lines.append(
            f"{'layer':<11s}{'op':<28s}{'count':>10s}{'p50':>12s}"
            f"{'p95':>12s}{'p99':>12s}{'total':>12s}"
        )
        for r in rows:
            lines.append(
                f"{r['layer']:<11s}{r['op']:<28s}{r['count']:>10d}"
                f"{_fmt_latency(r['p50']):>12s}{_fmt_latency(r['p95']):>12s}"
                f"{_fmt_latency(r['p99']):>12s}{_fmt_latency(r['total']):>12s}"
            )

    snap = registry.collect()["objects"]

    # Op counts from the registered ad-hoc stats, grouped by layer.
    count_lines: List[str] = []
    for name in sorted(snap, key=lambda n: _layer_rank(snap[n].get("_layer", ""))):
        fields = snap[name]
        layer = fields.get("_layer", "")
        interesting = {
            k: v
            for k, v in fields.items()
            if not k.startswith("_") and isinstance(v, (int, float)) and v
        }
        if not interesting:
            continue
        body = ", ".join(
            f"{k}={_fmt_count(v)}" for k, v in sorted(interesting.items())
        )
        count_lines.append(f"  [{layer or '-':<10s}] {name}: {body}")
    if count_lines:
        lines.append("")
        lines.append("op counts:")
        lines.extend(count_lines)

    # Device busy fraction + cache hit rates.
    lines.append("")
    device = snap.get("device.io")
    if device and sim > 0:
        busy = device.get("busy_time", 0.0)
        lines.append(
            f"device busy fraction: {busy / sim:.3f} "
            f"({device.get('reads', 0)} reads / {device.get('writes', 0)} writes / "
            f"{device.get('flushes', 0)} flushes, "
            f"{int(device.get('bytes_read', 0)) >> 10} KiB read, "
            f"{int(device.get('bytes_written', 0)) >> 10} KiB written)"
        )
    hit_lines = []
    for cache_name, label in (
        ("vfs.pagecache", "page cache"),
        ("vfs.dcache", "dentry cache"),
        ("tree.nodecache", "node cache"),
    ):
        fields = snap.get(cache_name)
        if not fields:
            continue
        hits = fields.get("hits", 0)
        misses = fields.get("misses", 0)
        hit_lines.append(f"{label} {_rate(hits, misses)} hit ({hits}/{hits + misses})")
    if hit_lines:
        lines.append("cache hit rates: " + "; ".join(hit_lines))
    return "\n".join(lines)


def _layer_rank(layer: str) -> int:
    return LAYER_ORDER.index(layer) if layer in LAYER_ORDER else len(LAYER_ORDER)


def _fmt_count(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
