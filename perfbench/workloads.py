"""The seven workloads: which trace, on which mount, and why."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict

from perfbench import traces
from perfbench.traces import MIB, Sizes, Trace


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why this workload is in the suite (copied into BENCHMARK.json).
    why: str
    make_trace: Callable[[random.Random, Sizes], Trace]
    #: Mount kind for :func:`perfbench.replay.build_mount`.
    mount: str = "betrfs"
    #: Node-cache budget (10 MiB is the fixed mount's).
    tree_cache_bytes: int = 10 * MIB
    #: Replay the sessions under ``repro.sched.Scheduler``.
    scheduled: bool = False


def _mail_flat(rng: random.Random, sz: Sizes) -> Trace:
    return traces.flattened(traces.mail(rng, sz))


_ALL = (
    Workload(
        "smallfile_create",
        "TokuBench-shape creates: tree insert/flush/split/evict/serialize "
        "do the work, page cache and fsync almost none",
        traces.smallfile_create,
        # Cut so the tree is several times the node cache (the measured
        # ratio is printed).  Not lower: under ~3 MiB the dirty working
        # set no longer fits and every insert evicts — a thrashing cliff
        # whose position moves with the seed (8.6 s vs 14.9 s per rep).
        tree_cache_bytes=4 * MIB,
    ),
    Workload(
        "mail_fsync",
        "Dovecot mix on a maildir that fits both caches: fsync-bound "
        "(WAL flush, dirty-page scan, rename); tree flushing idle",
        _mail_flat,
    ),
    Workload(
        "tree_scan_cold",
        "cold find/grep/random preads over data larger than the page "
        "cache: node decode, cache misses, read-ahead; WAL idle",
        traces.tree_scan_cold,
    ),
    Workload(
        "bigfile_rw",
        "sequential write, random 4 KiB overwrites, 4-byte blind patches, "
        "read back: page sharing, PacMan, write-back; no namespace work",
        traces.bigfile_rw,
    ),
    Workload(
        "mail_mt8",
        "the mail_fsync ops as 8 sessions under the FIFO scheduler with "
        "folder locks: differs from mail_fsync only by repro.sched",
        traces.mail,
        scheduled=True,
    ),
    Workload(
        "mail_mt8_shard4",
        "the mail_mt8 trace on 4 hash-partitioned volumes: differs from "
        "mail_mt8 only by repro.shard (cross-shard renames)",
        traces.mail,
        mount="shard4",
        scheduled=True,
    ),
    Workload(
        "mail_fsync_ext4",
        "the mail_fsync trace on the ext4 baseline: vfs+baselines only, "
        "betrfs/core bypassed, so a core change must not move it",
        _mail_flat,
        mount="ext4",
    ),
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in _ALL}


def build_trace(workload: Workload, seed: int, sizes: Sizes) -> Trace:
    """The workload's trace for ``seed``: the only use of the seed."""
    return workload.make_trace(random.Random(seed), sizes)
