"""Tests for the flash translation layer and TRIM plumbing."""

import random

import pytest

from repro.baselines.mount import make_baseline
from repro.betrfs.filesystem import MountOptions, make_betrfs
from repro.check.fsck import fsck_mount
from repro.core.checkpoint import BlockManager
from repro.device.block import BlockDevice, ExtentStore
from repro.device.clock import SimClock
from repro.device.ftl import FlashTranslationLayer
from repro.model.profiles import (
    COMMODITY_HDD,
    COMMODITY_SSD,
    FTLGeometry,
    small_ftl_profile,
)

MIB = 1 << 20
PAGE = 4096


def make_ftl(capacity=4 * MIB, op_ratio=0.07, **kw) -> FlashTranslationLayer:
    return FlashTranslationLayer(
        FTLGeometry(op_ratio=op_ratio, **kw), capacity
    )


class TestFTLMapping:
    def test_fresh_device_wa_is_one(self):
        ftl = make_ftl()
        ftl.host_write(0, 64 * PAGE)
        assert ftl.write_amplification() == 1.0
        assert ftl.mapped_pages() == 64

    def test_valid_pages_conservation(self):
        """valid-page bitmaps and the logical map agree at all times."""
        ftl = make_ftl(capacity=2 * MIB)
        rng = random.Random(11)
        for step in range(4000):
            lpn = rng.randrange(ftl.logical_pages)
            if step % 7 == 3:
                ftl.trim(lpn * PAGE, PAGE)
            else:
                ftl.host_write(lpn * PAGE, PAGE)
            assert ftl.valid_pages() == ftl.mapped_pages()
        # No live page lost: every mapping resolves both directions.
        for lpn, ppn in ftl.map.items():
            assert ftl._page_lpn[ppn] == lpn

    def test_overwrite_invalidates_old_page(self):
        ftl = make_ftl()
        ftl.host_write(0, PAGE)
        first = ftl.map[0]
        ftl.host_write(0, PAGE)
        assert ftl.map[0] != first
        assert ftl.mapped_pages() == 1
        assert ftl.valid_pages() == 1

    def test_subpage_write_touches_whole_pages(self):
        ftl = make_ftl()
        ftl.host_write(PAGE - 2, 4)  # straddles pages 0 and 1
        assert ftl.mapped_pages() == 2

    def test_trim_unmaps_only_fully_covered_pages(self):
        ftl = make_ftl()
        ftl.host_write(0, 4 * PAGE)
        dropped = ftl.trim(PAGE // 2, 2 * PAGE)  # fully covers page 1 only
        assert dropped == 1
        assert ftl.mapped_pages() == 3
        assert ftl.stats.trimmed_pages == 1

    def test_out_of_space_raises(self):
        ftl = make_ftl(capacity=256 * 1024)
        with pytest.raises(RuntimeError):
            # Writing far beyond logical capacity must exhaust the
            # physical space rather than loop forever.
            for lpn in range(ftl.logical_pages * 16):
                ftl.host_write(lpn * PAGE, PAGE)


class TestGarbageCollection:
    def overwrite_randomly(self, ftl, ops, seed=5, trim_every=0):
        rng = random.Random(seed)
        n = ftl.logical_pages
        for i in range(ops):
            lpn = rng.randrange(n)
            ftl.host_write(lpn * PAGE, PAGE)
            if trim_every and i % trim_every == trim_every - 1:
                ftl.trim(rng.randrange(n) * PAGE, PAGE)

    def test_wa_exceeds_threshold_past_overprovisioning(self):
        """Random overwrite well past the OP space forces GC copies."""
        ftl = make_ftl(capacity=2 * MIB)
        self.overwrite_randomly(ftl, 3 * ftl.logical_pages)
        assert ftl.stats.gc_runs > 0
        assert ftl.write_amplification() > 1.5
        assert ftl.valid_pages() == ftl.mapped_pages()

    def test_wa_monotone_under_continued_overwrite(self):
        ftl = make_ftl(capacity=2 * MIB)
        self.overwrite_randomly(ftl, ftl.logical_pages)
        samples = []
        for round_ in range(4):
            self.overwrite_randomly(ftl, ftl.logical_pages, seed=round_)
            samples.append(ftl.write_amplification())
        assert all(b >= a - 1e-9 for a, b in zip(samples, samples[1:]))

    def test_gc_preserves_all_live_mappings(self):
        ftl = make_ftl(capacity=1 * MIB)
        self.overwrite_randomly(ftl, 4 * ftl.logical_pages)
        # Every logical page written must still map to a unique
        # physical page marked valid in its block's bitmap.
        seen = set()
        for lpn, ppn in ftl.map.items():
            assert ppn not in seen
            seen.add(ppn)
            block, idx = divmod(ppn, ftl.geom.pages_per_block)
            assert ftl._valid_mask[block] & (1 << idx)

    def test_trim_reduces_write_amplification(self):
        with_trim = make_ftl(capacity=2 * MIB)
        without = make_ftl(capacity=2 * MIB)
        ops = 3 * with_trim.logical_pages
        self.overwrite_randomly(without, ops)
        self.overwrite_randomly(with_trim, ops, trim_every=4)
        assert with_trim.write_amplification() < without.write_amplification()

    def test_gc_charges_time_and_erases(self):
        ftl = make_ftl(capacity=1 * MIB)
        seconds = 0.0
        rng = random.Random(3)
        for _ in range(4 * ftl.logical_pages):
            seconds += ftl.host_write(
                rng.randrange(ftl.logical_pages) * PAGE, PAGE
            )
        assert seconds > 0.0
        assert abs(seconds - ftl.stats.gc_time) < 1e-9
        assert ftl.stats.erases == ftl.stats.gc_runs > 0
        assert ftl.erase_count_max() >= 1
        assert ftl.erase_count_total() == ftl.stats.erases

    def test_age_fragments_without_accounting(self):
        ftl = make_ftl(capacity=2 * MIB)
        ftl.age(utilization=0.9, churn=0.5, seed=9)
        assert ftl.mapped_pages() == int(ftl.logical_pages * 0.9)
        # Accounting reset; wear preserved.
        assert ftl.stats.host_pages_written == 0
        assert ftl.stats.gc_time == 0.0
        assert ftl.write_amplification() == 1.0
        assert ftl.erase_count_total() > 0

    def test_clone_is_independent(self):
        ftl = make_ftl(capacity=1 * MIB)
        ftl.age(utilization=0.8, churn=0.3)
        twin = ftl.clone()
        assert twin.map == ftl.map
        assert twin.free_blocks() == ftl.free_blocks()
        ftl.host_write(0, PAGE)
        assert twin.stats.host_pages_written == 0
        assert twin.map != ftl.map or twin.map[0] != ftl.map[0]


class TestDeviceIntegration:
    def make_device(self, capacity=16 * MIB):
        clock = SimClock()
        return BlockDevice(clock, small_ftl_profile(capacity=capacity))

    def test_ssd_profile_has_ftl_hdd_does_not(self):
        clock = SimClock()
        assert BlockDevice(clock, COMMODITY_SSD).ftl is not None
        assert BlockDevice(SimClock(), COMMODITY_HDD).ftl is None

    def test_discard_charges_and_accounts(self):
        device = self.make_device()
        device.write(0, b"x" * (8 * PAGE))
        before = device.stats.snapshot()
        t0 = device.clock.now
        device.discard(0, 8 * PAGE)
        delta = device.stats.delta(before)
        assert delta.discards == 1
        assert delta.bytes_discarded == 8 * PAGE
        assert device.clock.now >= t0  # cmd overhead scheduled, not blocking
        assert device.ftl.mapped_pages() == 0

    def test_stats_delta_includes_discard_fields(self):
        device = self.make_device()
        snap = device.stats.snapshot()
        device.write(0, b"w" * PAGE)
        device.discard(0, PAGE)
        delta = device.stats.delta(snap)
        assert delta.discards == 1
        assert delta.bytes_discarded == PAGE
        assert snap.discards == 0  # snapshot is decoupled

    def test_aged_device_slower_than_fresh(self):
        """GC pauses on the aged device stretch the same write stream."""
        fresh = self.make_device(capacity=8 * MIB)
        aged = self.make_device(capacity=8 * MIB)
        aged.ftl.age(utilization=0.92, churn=0.6)

        def hammer(device):
            rng = random.Random(21)
            blocks = (4 * MIB) // PAGE
            start = device.clock.now
            for _ in range(3 * blocks):
                device.write(rng.randrange(blocks) * PAGE, b"y" * PAGE)
            return device.clock.now - start

        t_fresh = hammer(fresh)
        t_aged = hammer(aged)
        assert t_aged > t_fresh
        assert aged.ftl.stats.gc_time > 0.0

    def test_crash_image_carries_ftl_state(self):
        device = self.make_device()
        device.ftl.age(utilization=0.7, churn=0.4)
        device.write(0, b"payload")
        image = device.crash_image()
        assert image.read(0, 7) == b"payload"
        assert image.ftl is not None
        assert image.ftl.map == device.ftl.map
        assert image.ftl.erase_counts == device.ftl.erase_counts
        # Independent after the snapshot.
        device.write(PAGE, b"z" * PAGE)
        assert image.ftl.stats.host_pages_written != device.ftl.stats.host_pages_written

    def test_extent_store_snapshot_roundtrip(self):
        store = ExtentStore()
        store.write(0, b"head")
        store.write(100, b"tail")
        twin = ExtentStore.from_snapshot(store.snapshot())
        assert twin.read(0, 4) == b"head"
        assert twin.read(100, 4) == b"tail"
        twin.write(0, b"HEAD")
        assert store.read(0, 4) == b"head"


class TestBlockManagerTrimStaging:
    def test_extent_trimmed_only_after_two_commits(self):
        """A freed checkpointed extent must survive one ping-pong
        fallback window."""
        mgr = BlockManager(1 * MIB)
        mgr.relocate(1, 4096)
        old = mgr.table[1]
        assert mgr.commit_checkpoint() == []  # `old` is checkpointed
        assert mgr.relocate(1, 4096)[1] is None  # frees `old` at the next commit
        assert mgr.commit_checkpoint() == []
        assert mgr.commit_checkpoint() == [(old[0], 4096)]
        assert mgr.commit_checkpoint() == []

    def test_reused_extent_not_trimmed(self):
        mgr = BlockManager(1 * MIB)
        mgr.relocate(1, 4096)
        mgr.commit_checkpoint()
        mgr.relocate(1, 4096)
        assert mgr.commit_checkpoint() == []
        # The freed extent is on the free list now; re-use it.
        mgr.relocate(2, 4096)
        assert mgr.commit_checkpoint() == []  # must NOT trim live data

    def test_never_checkpointed_copy_is_trimmed_at_once(self):
        """A copy allocated and superseded between two commits: no
        superblock references it, so it is returned for TRIM when it is
        superseded, never queued again, and reusable only after the next
        commit."""
        mgr = BlockManager(1 * MIB)
        first, _ = mgr.relocate(1, 6000)
        off, dead = mgr.relocate(1, 4096)
        assert dead == (first, 8192)
        assert mgr.allocate(4096) not in (first, first + 4096)
        assert (first, 8192) not in mgr.free_list
        assert mgr.commit_checkpoint() == []
        assert (first, 8192) in mgr.free_list
        assert mgr.commit_checkpoint() == []  # not queued for a second TRIM
        assert mgr.table[1] == (off, 4096)

    def test_scripted_sequence_allocates_the_same_offsets(self):
        """Trimming at once changes no allocation: the offsets of a
        scripted relocate/commit sequence are those of staging every
        superseded copy through the next commit (the pre-TRIM rule,
        restated here as first-fit over the superseded order)."""
        rng = random.Random(7)
        mgr = BlockManager(64 * MIB)
        free, deferred, cursor = [], [], 0
        table = {}
        for step in range(3000):
            if step % 97 == 96:
                mgr.commit_checkpoint()
                free.extend(deferred)
                deferred.clear()
                continue
            node = rng.randrange(40)
            nbytes = rng.randrange(1, 5) * 4096 - rng.randrange(3000)
            need = -(-nbytes // 4096) * 4096
            for i, (f_off, f_len) in enumerate(free):
                if f_len >= need:
                    expect = f_off
                    if f_len == need:
                        free.pop(i)
                    else:
                        free[i] = (f_off + need, f_len - need)
                    break
            else:
                expect, cursor = cursor, cursor + need
            if node in table:
                deferred.append(table[node])
            table[node] = (expect, need)
            assert mgr.relocate(node, nbytes)[0] == expect


class TestEndToEndTrim:
    def test_baseline_unlink_discards(self):
        mount = make_baseline("ext4", MountOptions(profile=COMMODITY_SSD))
        vfs = mount.vfs
        vfs.create("/f")
        vfs.write("/f", 0, b"d" * (64 * PAGE))
        vfs.fsync("/f")
        before = mount.device.stats.discards
        vfs.unlink("/f")
        assert mount.device.stats.discards > before

    def test_betrfs_checkpoint_path_discards(self):
        mount = make_betrfs("BetrFS v0.6", MountOptions(profile=COMMODITY_SSD))
        vfs = mount.vfs
        vfs.create("/f")
        for round_ in range(3):
            vfs.write("/f", 0, bytes([round_]) * (256 * 1024))
            vfs.fsync("/f")
            mount.env.checkpoint()
        # Log truncation and/or CoW extent reclamation reached the
        # device as TRIMs.
        assert mount.device.stats.discards > 0
        assert mount.device.ftl.stats.trimmed_pages > 0

    @staticmethod
    def _creates_without_checkpoint(files=6000):
        """A create run whose caches write back and evict (so nodes are
        written and rewritten) but that never reaches a checkpoint (an
        fsync would force one); returns the mount and what it wrote."""
        mount = make_betrfs(
            "BetrFS v0.6",
            MountOptions(
                profile=COMMODITY_SSD,
                page_cache_bytes=8 * MIB,
                dirty_limit_bytes=2 * MIB,
                tree_cache_bytes=2 * MIB,
            ),
        )
        generation = mount.env._sb_generation
        written = {}
        order = list(range(files))
        random.Random(5).shuffle(order)  # keys land all over the tree
        for i in order:
            path = f"/f{i:05d}"
            written[path] = bytes([i % 251]) * (1000 + i % 3000)
            mount.vfs.create(path)
            mount.vfs.write(path, 0, written[path])
        assert mount.env._sb_generation == generation, "a checkpoint ran"
        return mount, written

    def test_run_without_checkpoint_stores_only_live_node_copies(self):
        """A node copy superseded before any checkpoint referenced it is
        trimmed at once: the tree regions hold no more than the live
        extents, and the store no more than those plus log and
        superblock."""
        mount, _written = self._creates_without_checkpoint()
        layout, env = mount.storage.layout, mount.env
        assert sum(t.stats.node_writes for t in env.trees) > sum(
            len(t.blockman.table) for t in env.trees
        ), "no node was rewritten"
        snapshot = mount.device.store.snapshot()

        def stored(lo, hi):
            return sum(
                max(0, min(off + sum(map(len, segs)), hi) - max(off, lo))
                for off, segs in snapshot
            )

        live = 0
        for tree in env.trees:
            base = layout.file_base(tree.file_name)
            extents = sum(
                BlockManager._align(ln) for _off, ln in tree.blockman.table.values()
            )
            assert stored(base, base + tree.blockman.file_size) <= extents
            live += extents
        log = stored(layout.log_base, layout.log_base + mount.opts.log_size)
        superblock = stored(layout.base, layout.log_base)
        assert mount.device.store.stored_bytes() <= live + log + superblock

    def test_crash_after_immediate_trims_recovers_fsynced_files(self):
        mount, written = self._creates_without_checkpoint()
        synced = sorted(written)[::500]
        for path in synced:
            mount.vfs.fsync(path)
        recovered = mount.crash()
        assert fsck_mount(recovered).ok
        for path in synced:
            data = written[path]
            assert recovered.vfs.read(path, 0, len(data) + 1) == data


class TestHarnessSmoke:
    def test_run_ftl_smoke(self):
        from repro.harness.ftl import run_ftl_smoke

        out = run_ftl_smoke(overwrite_ops=2048)
        assert out["write_amplification"] > 1.0
        assert out["gc_pause_count"] > 0
        assert out["gc_pause_p99_ms"] > 0.0
        assert out["discards"] > 0
