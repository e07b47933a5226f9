"""Mount construction and microbenchmark execution."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.baselines.mount import make_baseline
from repro.baselines.params import BASELINES
from repro.betrfs.filesystem import MountOptions, make_betrfs
from repro.betrfs.versions import VERSIONS
from repro.model.profiles import COMMODITY_HDD, COMMODITY_SSD_SCALED
from repro.workloads.dirops import find_tree, grep_tree, rm_rf
from repro.workloads.randwrite import random_write_4b, random_write_4k
from repro.workloads.scale import DEFAULT_SCALE, WorkloadScale
from repro.workloads.sequential import seq_read, seq_write
from repro.workloads.tokubench import tokubench
from repro.workloads.trees import build_tree, linux_like_tree

#: Row order for Table 1.
TABLE1_SYSTEMS = ["btrfs", "ext4", "f2fs", "xfs", "zfs", "BetrFS v0.4", "BetrFS v0.6"]

#: Row order for Table 3.
TABLE3_SYSTEMS = [
    "ext4",
    "btrfs",
    "xfs",
    "f2fs",
    "zfs",
    "BetrFS v0.4",
    "+SFL",
    "+RG",
    "+MLC",
    "+PGSH",
    "+DC",
    "+CL",
    "+QRY",
]

#: Systems compared in the application figures.
FIG2_SYSTEMS = ["ext4", "btrfs", "xfs", "f2fs", "zfs", "BetrFS v0.4", "BetrFS v0.6"]


def make_mount(name: str, scale: WorkloadScale = DEFAULT_SCALE, profile=None):
    """Mount a file system by Table row name (baseline or BetrFS).

    ``profile`` overrides the device (default: the scaled 860 EVO);
    pass ``repro.model.profiles.COMMODITY_HDD`` for the paper's prior
    "compleat on an HDD" context.
    """
    opts = MountOptions(
        profile=profile or COMMODITY_SSD_SCALED,
        scale=scale.geometry,
        page_cache_bytes=scale.page_cache_bytes,
        dirty_limit_bytes=scale.dirty_limit_bytes,
        tree_cache_bytes=scale.tree_cache_bytes,
    )
    if name in BASELINES:
        return make_baseline(name, opts)
    if name in VERSIONS:
        return make_betrfs(name, opts)
    raise KeyError(f"unknown file system {name!r}")


# ----------------------------------------------------------------------
# Microbenchmark cells (Table 1 / Table 3 columns)
# ----------------------------------------------------------------------
def micro_seq(name: str, scale: WorkloadScale, profile=None) -> Dict[str, float]:
    mount = make_mount(name, scale, profile)
    w = seq_write(mount, scale)
    r = seq_read(mount, scale)
    return {"seq_write": w, "seq_read": r}


def _rand_scale(scale: WorkloadScale) -> WorkloadScale:
    """Cache sizing for the random-write benchmarks.

    The paper's 10 GiB target file fits in the testbed's 32 GB RAM and
    in the key-value store's node cache; mirror those ratios.
    """
    import dataclasses

    return dataclasses.replace(
        scale,
        page_cache_bytes=scale.rand_file_bytes + (scale.rand_file_bytes >> 2),
        dirty_limit_bytes=max(scale.dirty_limit_bytes, scale.rand_file_bytes // 8),
        tree_cache_bytes=scale.rand_file_bytes * 2,
    )


def micro_rand_4k(name: str, scale: WorkloadScale, profile=None) -> Dict[str, float]:
    mount = make_mount(name, _rand_scale(scale), profile)
    return {"rand_4k": random_write_4k(mount, scale)}


def micro_rand_4b(name: str, scale: WorkloadScale, profile=None) -> Dict[str, float]:
    mount = make_mount(name, _rand_scale(scale), profile)
    return {"rand_4b": random_write_4b(mount, scale)}


def micro_tokubench(name: str, scale: WorkloadScale, profile=None) -> Dict[str, float]:
    return {"tokubench": tokubench(make_mount(name, scale, profile), scale)}


def micro_grep(name: str, scale: WorkloadScale, profile=None) -> Dict[str, float]:
    mount = make_mount(name, scale, profile)
    spec = linux_like_tree("/linux", scale.tree_files, scale.tree_bytes)
    build_tree(mount, spec)
    return {"grep": grep_tree(mount, "/linux")}


def micro_find(name: str, scale: WorkloadScale, profile=None) -> Dict[str, float]:
    mount = make_mount(name, scale, profile)
    spec = linux_like_tree("/linux", scale.tree_files, scale.tree_bytes)
    build_tree(mount, spec)
    return {"find": find_tree(mount, "/linux")}


def micro_rm(name: str, scale: WorkloadScale, profile=None) -> Dict[str, float]:
    """rm -rf of two Linux-source copies (as in the paper)."""
    mount = make_mount(name, scale, profile)
    spec1 = linux_like_tree("/copies/linux1", scale.tree_files, scale.tree_bytes)
    spec2 = spec1.scaled_copy("/copies/linux2")
    mount.vfs.mkdir("/copies")
    build_tree(mount, spec1, fsync_at_end=False)
    build_tree(mount, spec2)
    return {"rm": rm_rf(mount, "/copies")}


#: Every cell takes ``(name, scale, profile=None)``; ``profile``
#: overrides the device as in :func:`make_mount`.
MICROBENCHES: Dict[str, Callable[..., Dict[str, float]]] = {
    "seq": micro_seq,
    "rand_4k": micro_rand_4k,
    "rand_4b": micro_rand_4b,
    "tokubench": micro_tokubench,
    "grep": micro_grep,
    "rm": micro_rm,
    "find": micro_find,
}


def run_micro(
    name: str,
    scale: WorkloadScale = DEFAULT_SCALE,
    only: Optional[List[str]] = None,
    verbose: bool = False,
) -> Dict[str, float]:
    """Run all (or ``only``) microbenchmarks for one file system."""
    out: Dict[str, float] = {}
    for bench, fn in MICROBENCHES.items():
        if only is not None and bench not in only:
            continue
        result = fn(name, scale)
        out.update(result)
        if verbose:
            for k, v in result.items():
                print(f"  {name:12s} {k:10s} {v:10.3f}", flush=True)
    return out


def run_microbenches(
    systems: List[str],
    scale: WorkloadScale = DEFAULT_SCALE,
    only: Optional[List[str]] = None,
    verbose: bool = False,
) -> Dict[str, Dict[str, float]]:
    """The full microbenchmark grid (Table 1/3)."""
    return {
        name: run_micro(name, scale, only=only, verbose=verbose)
        for name in systems
    }


def run_hdd_context(
    systems=None,
    scale: WorkloadScale = DEFAULT_SCALE,
    verbose: bool = False,
) -> Dict[str, Dict[str, float]]:
    """The paper's prior-work claim: BetrFS (v0.4) is compleat on HDDs.

    Runs the microbenchmark grid on the HDD profile.  BetrFS v0.4
    should have no deep-red cell here and crush random writes — the
    situation the paper starts from before moving to SSDs.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name in systems or ["ext4", "btrfs", "zfs", "BetrFS v0.4"]:
        row: Dict[str, float] = {}
        for fn in MICROBENCHES.values():
            result = fn(name, scale, COMMODITY_HDD)
            row.update(result)
            if verbose:
                for k, v in result.items():
                    print(f"  [hdd] {name:12s} {k:10s} {v:10.3f}", flush=True)
        out[name] = row
    return out
