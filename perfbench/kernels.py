"""Per-layer kernels: tight loops over one public function each.

Run once, after the traced ``smallfile_create`` rep, on what that rep
left in its mount — the on-disk nodes, their keys and messages, the
full page cache — so each layer's inner step can be timed on its own
(host µs per call, median of :data:`ROUNDS` rounds).  The mount is
spent afterwards: kernels append to its log, evict its caches and
write to its device.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

from repro.core import pacman
from repro.core.env import META
from repro.core.messages import Insert, PageFrame, RangeDelete, value_bytes
from repro.core.node import LeafNode
from repro.core.serialize import decode_node, serialize_node
from repro.core.wal import OP_INSERT
from repro.device.ftl import FlashTranslationLayer
from repro.model.profiles import FTLGeometry

from perfbench.run import ROOT

ROUNDS = 3
#: Nodes sampled per tree (decoded/encoded per round).
NODE_SAMPLE = 16


def _us_per_call(loop: Callable[[], int]) -> float:
    """Median over rounds of (loop wall time / calls the loop made)."""
    samples = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter_ns()
        calls = loop()
        samples.append((time.perf_counter_ns() - t0) / 1e3 / max(1, calls))
    return statistics.median(samples)


def run(mount) -> Dict[str, float]:
    """Every ``perfbench.metrics.KERNELS`` value, on a spent BetrFS mount."""
    env, cfg = mount.env, mount.config
    aligned, lifting = cfg.page_sharing, cfg.lifting
    cache = env.cache

    # The on-disk nodes the rep left, as raw extents: (tree, id, blob).
    blobs = [
        (tree, node_id, mount.storage.read(tree.file_name, off, ln))
        for tree in env.trees
        for node_id, (off, ln) in sorted(tree.blockman.table.items())[:NODE_SAMPLE]
    ]
    nodes = [decode_node(blob, aligned=aligned) for _t, _i, blob in blobs]
    triples = [
        (leaf, key, value)
        for leaf in nodes
        if isinstance(leaf, LeafNode)
        for basement in leaf.basements
        for key, value in zip(basement.keys, basement.values)
    ][:2000]
    out: Dict[str, float] = {}

    def decode_loop() -> int:
        for _t, _i, blob in blobs:
            decode_node(blob, aligned=aligned)
        return len(blobs)

    def encode_loop() -> int:
        for node in nodes:
            serialize_node(node, aligned=aligned, lifting=lifting)
        return len(nodes)

    out["kernel.node_decode_us"] = _us_per_call(decode_loop)
    out["kernel.node_encode_us"] = _us_per_call(encode_loop)

    wal = env.wal
    log_entries = [(key, value_bytes(value)) for _leaf, key, value in triples]

    def wal_loop() -> int:
        for key, value in log_entries:
            wal.append(OP_INSERT, META, key, value)
        return len(log_entries)

    out["kernel.wal_append_us"] = _us_per_call(wal_loop)

    msn = [1 << 40]

    def apply_loop() -> int:
        for leaf, key, value in triples:
            msn[0] += 1
            leaf.apply(Insert(key, value, msn[0]), cfg.basement_size)
        return len(triples)

    out["kernel.msg_apply_us"] = _us_per_call(apply_loop)

    cached_ids = [node.node_id for _owner, node in cache.all_nodes()]

    def get_loop() -> int:
        for _ in range(200):
            for node_id in cached_ids:
                cache.get(node_id)
        return 200 * len(cached_ids)

    out["kernel.cache_get_us"] = _us_per_call(get_loop)

    # One miss on a full cache: insert an absent node, evict to fit.
    absent = [
        (tree, node)
        for (tree, node_id, _blob), node in zip(blobs, nodes)
        if cache.owner_of(node_id) is None
    ]

    def evict_loop() -> int:
        for tree, node in absent:
            cache.put(node, tree)
            cache.evict_to_fit(
                lambda owner, victim: owner.write_node(victim),
                lambda owner, victim: owner.release_node_memory(victim),
            )
        return len(absent)

    out["kernel.cache_evict_us"] = _us_per_call(evict_loop)

    pages = mount.vfs.pages
    some_path = next(iter(pages))[0][0]

    def fsync_loop() -> int:
        for _ in range(100):
            pages.dirty_pages(some_path)
        return 100

    out["kernel.pagecache_fsync_us"] = _us_per_call(fsync_loop)

    page_no = [0]

    def page_evict_loop() -> int:
        for _ in range(500):
            page_no[0] += 1
            pages.insert_clean("/perfbench-kernel", page_no[0], PageFrame(bytes(4096)))
            pages.evict_to_fit()
        return 500

    out["kernel.pagecache_evict_us"] = _us_per_call(page_evict_loop)

    device = mount.device
    base = [device.profile.capacity // 2]
    block = bytes(4096)

    def device_loop() -> int:
        for _ in range(1000):
            device.write(base[0], block)
            base[0] += 4096
        return 1000

    out["kernel.device_write_us"] = _us_per_call(device_loop)

    # A small FTL filled once, then overwritten past its GC watermark.
    ftl = FlashTranslationLayer(FTLGeometry(), 8 << 20)
    for lpn in range(ftl.logical_pages):
        ftl.host_write(lpn * 4096, 4096)
    cursor = [1]

    def ftl_loop() -> int:
        for _ in range(4000):
            cursor[0] = (cursor[0] * 1103515245 + 12345) % ftl.logical_pages
            ftl.host_write(cursor[0] * 4096, 4096)
        return 4000

    out["kernel.ftl_gc_us"] = _us_per_call(ftl_loop)

    # A buffer of the rep's own keys with a range delete every 64.
    keys = sorted(key for _leaf, key, _value in triples)[:512]
    buffer: List = []
    for i, key in enumerate(keys):
        buffer.append(Insert(key, b"v", i + 1))
        if i % 64 == 63:
            buffer.append(RangeDelete(keys[i - 7], key, i + 1))

    def pacman_loop() -> int:
        for _ in range(20):
            pacman.compact(list(buffer), pacman.PacmanStats())
        return 20

    out["kernel.pacman_compact_us"] = _us_per_call(pacman_loop)

    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.check", "lint"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
        check=False,
    )
    out["kernel.check_lint_s"] = time.perf_counter() - t0
    return out
