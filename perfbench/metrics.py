"""Every metric the benchmark reports: name, unit, direction, clock.

``BENCHMARK.json`` lists the same names (``perfbench/tests`` checks the
two agree).  *host* metrics are ``perf_counter`` measurements of the
simulator and carry run-to-run noise; *sim* metrics are functions of
the trace alone — for one seed they repeat bit for bit, so
:mod:`perfbench.compare` treats any difference as a change to the
simulation.  The ``bound`` of a sim metric only exists because the
driver compares runs of *different* seeds; it is the seed-to-seed
allowance, not a noise allowance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Layers reported, named after this repository's modules.  ``perfbench``
#: is the harness itself: the root span and the shadow-model checks.
LAYERS: Tuple[str, ...] = (
    "perfbench",
    "vfs",
    "vfs.pagecache",
    "vfs.dcache",
    "betrfs.northbound",
    "core.env",
    "core.tree",
    "core.cache",
    "core.wal",
    "core.serialize",
    "core.checkpoint",
    "storage",
    "kmem",
    "device",
    "sched",
    "shard",
    "baselines",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "host" | "sim" | "-"
    #: Share of the parent's median by which the metric may worsen.
    bound: float = 0.0
    #: Listed in BENCHMARK.json ``end_to_end`` (the driver's contract).
    driver: bool = True

    @property
    def exact(self) -> bool:
        return self.clock != "host"


#: End-to-end metrics, per workload.  Bounds follow the seed-to-seed
#: spread (interquartile range / median over ten seeds) seen on the
#: reference box, whose noise comes in phases.  Host throughput and op
#: latencies: 2–7 % in quiet phases, 14–17 % in the worst seen
#: (``mail_mt8_shard4``), so they take the largest bound allowed; RSS
#: 1.9 %, sim throughput 1.9 %, write amplification 2.8 %, so at least
#: three times that.  Simulated time carries its own
#: units (``sim_s``, ``sim_us``) so it is never read as host time.  Six
#: are reported by the suite but kept out of the driver's ``metrics``
#: object (``driver=False``), which may hold nothing that is 0, the same
#: on every run, or unsteady by construction: ``fail_frac`` (0 when
#: correct; carried by ``failed``/``attempted``), ``sim_reps_agree`` (1
#: when correct; folded into ``correct``), the two sim latency
#: percentiles, which are model constants on workloads whose ops never
#: block (every ``smallfile_create`` op costs 14.1965 sim-µs whatever
#: the seed), and the per-*call* host percentiles, whose median sits on
#: a knife edge wherever two call kinds split a workload's calls 50/50
#: (``smallfile_create``: create vs write).  The per-*op* host
#: percentiles stand in for them.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("host_ops_per_s", "1/s", "higher", "host", 0.25),
    Metric("host_op_p50_us", "us", "lower", "host", 0.25),
    Metric("host_op_p99_us", "us", "lower", "host", 0.25),
    Metric("host_call_p50_us", "us", "lower", "host", 0.25, driver=False),
    Metric("host_call_p99_us", "us", "lower", "host", 0.25, driver=False),
    Metric("peak_rss_mb", "MiB", "lower", "host", 0.10),
    Metric("sim_ops_per_s", "1/sim_s", "higher", "sim", 0.08),
    Metric("sim_op_p50_us", "sim_us", "lower", "sim", driver=False),
    Metric("sim_op_p99_us", "sim_us", "lower", "sim", driver=False),
    Metric("write_amp", "ratio", "lower", "sim", 0.10),
    Metric("fail_frac", "ratio", "lower", "-", driver=False),
    Metric("sim_reps_agree", "bool", "higher", "sim", driver=False),
)

_COUNTS = """
vfs.syscalls count
vfs.dup_dirents count
vfs.pagecache.hit_rate ratio
vfs.pagecache.evictions count
vfs.pagecache.cow_copies count
vfs.dcache.hit_rate ratio
vfs.dcache.negative_hits count
core.tree.messages_flushed count
core.tree.flushes count
core.tree.messages_applied count
core.tree.leaf_splits count
core.tree.node_reads count
core.tree.node_writes count
core.tree.node_bytes_read B
core.tree.node_bytes_written B
core.tree.aoq_applied count
core.tree.readahead_hit_rate ratio
core.tree.nodes_read_per_query ratio
core.tree.queries count
core.pacman.runs count
core.pacman.comparisons count
core.pacman.drop_rate ratio
core.cache.hit_rate ratio
core.cache.evictions count
core.cache.dirty_evictions count
core.wal.entries count
core.wal.bytes_flushed B
core.wal.flushes count
core.wal.durable_flushes count
storage.log_bytes B
storage.data_bytes B
storage.meta_bytes B
storage.read_amp ratio
kmem.kmallocs count
kmem.vmallocs count
kmem.realloc_copy_bytes B
kmem.peak_bytes B
device.reads count
device.writes count
device.flushes count
device.bytes_read B
device.bytes_written B
device.seq_write_frac ratio
device.busy_frac ratio
device.flush_s sim_s
device.ftl.flash_write_amp ratio
device.ftl.gc_runs count
device.ftl.gc_pages_copied count
sched.switches count
sched.dispatches count
sched.lock_contentions count
sched.max_wait_s sim_s
sched.jain_ops ratio
shard.imbalance ratio
shard.cross_renames count
"""

#: Direction of the counts where "more" is the good side.
_HIGHER = ("hit_rate", "drop_rate", "seq_write_frac", "jain_ops")

KERNELS: Tuple[str, ...] = (
    "kernel.node_encode_us",
    "kernel.node_decode_us",
    "kernel.wal_append_us",
    "kernel.msg_apply_us",
    "kernel.cache_get_us",
    "kernel.cache_evict_us",
    "kernel.pagecache_fsync_us",
    "kernel.pagecache_evict_us",
    "kernel.device_write_us",
    "kernel.ftl_gc_us",
    "kernel.pacman_compact_us",
    "kernel.check_lint_s",
)


def _per_layer() -> List[Metric]:
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.calls", "count", "lower", "sim"))
        out.append(Metric(f"{layer}.self_s", "s", "lower", "host"))
        out.append(Metric(f"{layer}.sim_self_s", "sim_s", "lower", "sim"))
    for line in _COUNTS.split("\n"):
        if line:
            name, unit = line.split()
            better = "higher" if name.endswith(_HIGHER) else "lower"
            out.append(Metric(name, unit, better, "sim"))
    out.append(Metric("perfbench.trace_overhead_frac", "ratio", "lower", "host"))
    out.append(Metric("perfbench.rep_drift", "ratio", "lower", "host"))
    for name in KERNELS:
        out.append(Metric(name, name.rsplit("_", 1)[1], "lower", "host"))
    return out


#: Per-layer metrics (traced run): spans, counts, kernels.
PER_LAYER: Tuple[Metric, ...] = tuple(_per_layer())
