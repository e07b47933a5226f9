"""Per-layer counts, read from the stats objects of a finished mount.

The values are the simulator's own counters (the objects each layer
registers with ``mount.obs``), read once after the traced rep; on a
sharded mount the per-volume counters are summed.  Counts cover the
mount's whole life (preload + timed + final sync) except
``storage.read_amp``, which is over the timed phase.
"""

from __future__ import annotations

from typing import Dict

from perfbench.replay import Rep, envs_of


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def collect(rep: Rep) -> Dict[str, float]:
    """``{metric name: value}`` for every count in ``metrics._COUNTS``
    but ``vfs.dup_dirents``, which the verified rep sees (run.py)."""
    mount, sched = rep.mount, rep.sched
    vfs = mount.vfs
    pages, dcache = vfs.pages, vfs.dcache
    dev = mount.device.stats
    out: Dict[str, float] = {
        "vfs.syscalls": vfs.syscalls,
        "vfs.pagecache.hit_rate": _ratio(pages.hits, pages.hits + pages.misses),
        "vfs.pagecache.evictions": pages.evictions,
        "vfs.pagecache.cow_copies": pages.cow_copies,
        "vfs.dcache.hit_rate": _ratio(
            dcache.hits + dcache.negative_hits,
            dcache.hits + dcache.negative_hits + dcache.misses,
        ),
        "vfs.dcache.negative_hits": dcache.negative_hits,
        "device.reads": dev.reads,
        "device.writes": dev.writes,
        "device.flushes": dev.flushes,
        "device.bytes_read": dev.bytes_read,
        "device.bytes_written": dev.bytes_written,
        "device.seq_write_frac": _ratio(dev.seq_writes, dev.writes),
        "device.busy_frac": _ratio(dev.busy_time, mount.clock.now),
        "device.flush_s": dev.flush_time,
        "storage.read_amp": rep.read_amp,
    }
    ftl = mount.device.ftl
    out["device.ftl.flash_write_amp"] = ftl.write_amplification() if ftl else 0.0
    out["device.ftl.gc_runs"] = ftl.stats.gc_runs if ftl else 0
    out["device.ftl.gc_pages_copied"] = ftl.stats.gc_pages_copied if ftl else 0

    envs = envs_of(mount)
    trees = [tree.stats for env in envs for tree in env.trees]
    caches = [env.cache for env in envs]

    def tsum(attr: str) -> int:
        return sum(getattr(t, attr) for t in trees)

    def psum(attr: str) -> int:
        return sum(getattr(t.pacman, attr) for t in trees)

    queries = tsum("queries") + tsum("range_queries")
    out.update(
        {
            "core.tree.messages_flushed": tsum("messages_flushed"),
            "core.tree.flushes": tsum("flushes"),
            "core.tree.messages_applied": tsum("messages_applied"),
            "core.tree.leaf_splits": tsum("leaf_splits"),
            "core.tree.node_reads": tsum("node_reads"),
            "core.tree.node_writes": tsum("node_writes"),
            "core.tree.node_bytes_read": tsum("bytes_node_read"),
            "core.tree.node_bytes_written": tsum("bytes_node_written"),
            "core.tree.aoq_applied": tsum("aoq_applied"),
            "core.tree.readahead_hit_rate": _ratio(
                tsum("readahead_hits"), tsum("readahead_issued")
            ),
            "core.tree.nodes_read_per_query": _ratio(tsum("node_reads"), queries),
            "core.tree.queries": queries,
            "core.pacman.runs": psum("runs"),
            "core.pacman.comparisons": psum("comparisons"),
            "core.pacman.drop_rate": _ratio(
                psum("dropped_points") + psum("dropped_ranges"), psum("comparisons")
            ),
            "core.cache.hit_rate": _ratio(
                sum(c.hits for c in caches),
                sum(c.hits + c.misses for c in caches),
            ),
            "core.cache.evictions": sum(c.evictions for c in caches),
            "core.cache.dirty_evictions": sum(c.dirty_evictions for c in caches),
            "core.wal.entries": sum(e.wal.entries_appended for e in envs),
            "core.wal.bytes_flushed": sum(e.wal.bytes_flushed for e in envs),
            "core.wal.flushes": sum(e.wal.flushes for e in envs),
            "core.wal.durable_flushes": sum(e.wal.durable_flushes for e in envs),
        }
    )
    storages = getattr(mount, "storages", None) or (
        [mount.storage] if envs else []
    )
    for key, file_name in (("log", "log"), ("data", "data.db"), ("meta", "meta.db")):
        out[f"storage.{key}_bytes"] = sum(
            s.file_bytes_written.get(file_name, 0) for s in storages
        )
    alloc = mount.alloc.stats if envs else None
    for attr in ("kmallocs", "vmallocs", "realloc_copy_bytes", "peak_bytes"):
        out[f"kmem.{attr}"] = getattr(alloc, attr) if alloc else 0
    out["sched.switches"] = sched.switches if sched else 0
    out["sched.dispatches"] = sched.dispatches if sched else 0
    out["sched.lock_contentions"] = sched.locks.contentions if sched else 0
    out["sched.max_wait_s"] = sched.max_wait() if sched else 0.0
    out["sched.jain_ops"] = sched.jain_ops() if sched else 0.0
    sharded = hasattr(mount, "shard_map")
    out["shard.imbalance"] = mount.load_imbalance() if sharded else 0.0
    out["shard.cross_renames"] = mount.backend.cross_renames if sharded else 0
    return out
