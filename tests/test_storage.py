"""Tests for the southbound substrates (SFL and stacked ext4) and their journal."""

import random

import pytest

from repro.baselines import make_baseline
from repro.baselines.base import JOURNAL_SIZE
from repro.betrfs.filesystem import MountOptions
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.harness.mt import device_sha256
from repro.model.costs import CostModel
from repro.model.profiles import COMMODITY_SSD
from repro.storage.ext4sim import Ext4Southbound
from repro.storage.journal import ZERO_BLOCK, Journal
from repro.storage.sfl import SimpleFileLayer

MIB = 1 << 20


def make(kind):
    clock = SimClock()
    device = BlockDevice(clock, COMMODITY_SSD)
    costs = CostModel()
    if kind == "sfl":
        storage = SimpleFileLayer(device, costs, log_size=8 * MIB, meta_size=32 * MIB)
    else:
        storage = Ext4Southbound(device, costs)
        storage.create("superblock", 8 * MIB)
        storage.create("log", 8 * MIB)
        storage.create("meta.db", 32 * MIB)
        storage.create("data.db", 64 * MIB)
    return storage, device, clock


@pytest.mark.parametrize("kind", ["sfl", "ext4"])
class TestCommonContract:
    def test_write_read_roundtrip(self, kind):
        storage, _, _ = make(kind)
        storage.write("meta.db", 4096, b"node-bytes" * 100)
        assert storage.read("meta.db", 4096, 1000) == (b"node-bytes" * 100)[:1000]

    def test_files_are_isolated(self, kind):
        storage, _, _ = make(kind)
        storage.write("meta.db", 0, b"M" * 4096)
        storage.write("data.db", 0, b"D" * 4096)
        assert storage.read("meta.db", 0, 4096) == b"M" * 4096
        assert storage.read("data.db", 0, 4096) == b"D" * 4096

    def test_out_of_bounds_rejected(self, kind):
        storage, _, _ = make(kind)
        with pytest.raises(ValueError):
            storage.read("log", storage.file_size("log"), 4096)

    def test_prefetch_matches_sync_read(self, kind):
        storage, _, _ = make(kind)
        payload = bytes(range(256)) * 64
        storage.write("data.db", 8192, payload)
        storage.sync("data.db")
        completion = storage.prefetch("data.db", 8192, len(payload))
        assert b"".join(storage.finish_read(completion)) == payload
        assert b"".join(storage.read_segments("data.db", 8192, len(payload))) == payload

    def test_sync_is_a_barrier(self, kind):
        storage, device, clock = make(kind)
        storage.write("log", 0, b"entry" * 1000)
        t0 = clock.now
        storage.sync("log")
        assert clock.now > t0
        assert device.stats.flushes >= 1


class TestSFLSpecifics:
    def test_fixed_file_set(self):
        storage, _, _ = make("sfl")
        with pytest.raises(ValueError):
            storage.create("random-new-file", 4096)

    def test_create_validates_size(self):
        storage, _, _ = make("sfl")
        with pytest.raises(ValueError):
            storage.create("log", 1 << 40)

    def test_byref_write_skips_copy_charge(self):
        storage, _, clock = make("sfl")
        data = b"z" * MIB
        storage.write("data.db", 0, data, byref=False)
        with_copy = clock.cpu_time
        storage.write("data.db", 2 * MIB, data, byref=True)
        without_copy = clock.cpu_time - with_copy
        assert without_copy < with_copy

    def test_no_journal(self):
        storage, device, _ = make("sfl")
        storage.write("meta.db", 0, b"n" * 4096)
        storage.sync("meta.db")
        # Exactly the data write: no journal blocks on the device.
        assert device.stats.writes == 1


class TestExt4Specifics:
    def test_double_journaling_on_sync(self):
        storage, device, _ = make("ext4")
        storage.write("log", 0, b"wal-entry" * 100)
        writes_before = storage.journal.commits
        storage.sync("log")
        assert storage.journal.commits > writes_before
        assert device.stats.flushes >= 2  # ordered data + commit barriers

    def test_stacked_writes_cost_more_cpu_than_sfl(self):
        ext4, _, ext4_clock = make("ext4")
        sfl, _, sfl_clock = make("sfl")
        data = b"b" * MIB
        ext4.write("data.db", 0, data)
        sfl.write("data.db", 0, data, byref=True)
        assert ext4_clock.cpu_time > sfl_clock.cpu_time

    def test_chunked_reads(self):
        storage, device, _ = make("ext4")
        storage.write("data.db", 0, b"r" * (1 * MIB))
        storage.sync("data.db")
        reads_before = device.stats.reads
        storage.read("data.db", 0, 1 * MIB)
        # 1 MiB read through 128 KiB read-ahead windows: 8 device reads.
        assert device.stats.reads - reads_before == 8

    def test_dirty_limit_stutters(self):
        storage, _, clock = make("ext4")
        # Push well past the dirty limit and ensure the writer blocked
        # (io_wait accumulated) rather than sailing through.
        for i in range(12):
            storage.write("data.db", i * MIB, b"w" * MIB)
        assert clock.io_wait > 0


def fsync_storm(fresh_zeros=False):
    """An ext4 mount that fsyncs after every write of a few seeded
    sizes, so commits come in several lengths.  ``fresh_zeros``: every
    journal write lands as its own joined buffer, as before commits
    shared one zero block."""
    mount = make_baseline("ext4", MountOptions(scale=1 / 32))
    if fresh_zeros:
        write = mount.device.write
        mount.device.write = lambda off, data: write(off, b"".join(data))
    rng = random.Random(5)
    v = mount.vfs
    for i in range(1000):
        path = f"/f{i % 50}"
        if i < 50:
            v.create(path)
        v.write(path, rng.randrange(64) * 4096, b"j" * rng.randrange(1, 3 * 4096))
        v.fsync(path)
    return mount


class TestJournal:
    def test_every_commit_pads_with_one_shared_block(self):
        mount = fsync_storm()
        journal = mount.backend.journal
        assert journal.commits >= 1000
        stored = [segs for off, segs in mount.device.store.snapshot() if off < JOURNAL_SIZE]
        assert len({len(segs) for segs in stored}) > 1  # commits of several lengths
        assert {id(block) for segs in stored for block in segs} == {id(ZERO_BLOCK)}

    def test_shared_padding_leaves_device_and_clock_unchanged(self):
        shared, fresh = fsync_storm(), fsync_storm(fresh_zeros=True)
        assert device_sha256(shared.device) == device_sha256(fresh.device)
        assert shared.clock.now == fresh.clock.now
        assert shared.device.stats.discards == fresh.device.stats.discards

    def test_small_region_trims_at_wrap_and_reads_zeros(self):
        clock = SimClock()
        device = BlockDevice(clock, COMMODITY_SSD)
        region = 64 * 1024
        journal = Journal(device, CostModel(), 0, region)
        for i in range(8):  # commits of 12, 12, 16, 12, 12 | 16, 12, 12 KiB
            for _ in range(i % 3):
                journal.log_block()
            journal.commit(durable=i % 2 == 0)
        assert device.stats.discards == 1
        assert journal.head == 40 * 1024
        # The wrap TRIMmed the whole used region: only what was written
        # since is stored, and all of it reads back as zeros.
        stored = sum(
            len(s) for off, segs in device.store.snapshot() if off < region for s in segs
        )
        assert stored == journal.head
        assert device.read(0, region) == bytes(region)
