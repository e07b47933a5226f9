"""Crash-consistency and checkpointing tests for the KV environment."""

import pytest

from repro.core.checkpoint import SLOT_HEAD
from repro.core.env import DATA, META
from repro.core.messages import PageFrame, value_bytes
from repro.core.wal import OP_DELETE, OP_MOVE
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.model.profiles import COMMODITY_SSD
from tests.conftest import (
    LAYOUT,
    make_env,
    newest_slot,
    recounted_node_bytes,
    reopen,
    small_cfg,
    tear_newest_slot,
)


class TestCheckpointRecovery:
    def test_recover_from_checkpoint(self):
        env, device = make_env()
        for i in range(500):
            env.insert(META, b"k%03d" % i, b"v%03d" % i)
        env.checkpoint()
        env2 = reopen(device)
        for i in range(0, 500, 37):
            assert env2.get(META, b"k%03d" % i) == b"v%03d" % i

    def test_recover_replays_log_after_checkpoint(self):
        env, device = make_env()
        for i in range(100):
            env.insert(META, b"a%03d" % i, b"old")
        env.checkpoint()
        for i in range(100):
            env.insert(META, b"b%03d" % i, b"new")
        env.delete(META, b"a000")
        env.range_delete(META, b"a050", b"a060")
        env.patch(META, b"a070", 0, b"PAT")
        env.sync()
        env2 = reopen(device)
        assert env2.recovered_entries > 0
        assert env2.get(META, b"b042") == b"new"
        assert env2.get(META, b"a000") is None
        assert env2.get(META, b"a055") is None
        assert env2.get(META, b"a070")[:3] == b"PAT"

    def test_unsynced_tail_may_be_lost_but_prefix_survives(self):
        env, device = make_env()
        env.insert(META, b"durable", b"yes")
        env.sync()
        env.insert(META, b"volatile", b"maybe")  # never flushed
        env2 = reopen(device)
        assert env2.get(META, b"durable") == b"yes"
        # The unsynced suffix is allowed to be lost; it must not
        # corrupt anything.
        assert env2.get(META, b"volatile") in (None, b"maybe")

    def test_clean_shutdown_skips_replay(self):
        env, device = make_env()
        env.insert(META, b"k", b"v")
        env.close()
        env2 = reopen(device)
        assert env2.recovered_entries == 0
        assert env2.get(META, b"k") == b"v"

    def test_superblock_ping_pong_survives_torn_checkpoint(self):
        env, device = make_env()
        env.insert(META, b"k", b"gen1")
        env.checkpoint()
        env.insert(META, b"k", b"gen2")
        env.checkpoint()
        # Tear the most recent superblock slot: a crash mid-write loses
        # the tail of the frame (payload CRC *and* completion stamp), so
        # recovery falls back to the older slot without an fsck error.
        torn = tear_newest_slot(device.store, LAYOUT.file_base("superblock"))
        assert torn.generation == env._sb_generation
        env2 = reopen(device)
        # Falls back to the previous checkpoint; log replay reapplies.
        assert env2.get(META, b"k") in (b"gen1", b"gen2")

    def test_remount_reads_the_frames_not_the_region(self):
        """Recovery reads each slot's first block and the rest of its
        frame, never the 4 MiB slot behind it."""
        env, device = make_env()
        for i in range(2000):
            env.insert(META, b"k%05d" % i, b"v" * 512)
            if i % 1000 == 999:
                env.checkpoint()
        _off, sb = newest_slot(device.store, LAYOUT.file_base("superblock"))
        frame = len(sb.frame())
        assert frame > SLOT_HEAD  # the rest of the frame is read too
        env2 = reopen(device)
        assert env2.get(META, b"k01234") == b"v" * 512
        read = env2.storage.file_bytes_read["superblock"]
        assert read <= 2 * (SLOT_HEAD + frame)

    def test_fresh_device_opens_empty(self):
        clock = SimClock()
        device = BlockDevice(clock, COMMODITY_SSD)
        env = reopen(device)
        assert env.get(META, b"anything") is None
        env.insert(META, b"k", b"v")
        assert env.get(META, b"k") == b"v"


class TestElidedValueLogging:
    def test_sync_escalates_to_checkpoint_for_elided_pages(self):
        env, device = make_env(log_page_values=False)
        # A short burst stays value-logged; a bulk stream elides.
        for i in range(80):
            env.insert(DATA, b"f\x00" + bytes([i]), PageFrame(b"\x7a" * 4096))
        assert env._elided_volatile
        before = env.checkpoints
        env.sync()
        assert env.checkpoints == before + 1
        assert not env._elided_volatile

    def test_small_bursts_are_value_logged(self):
        env, device = make_env(log_page_values=False)
        env.insert(DATA, b"g\x00\x01", PageFrame(b"\x11" * 4096))
        assert not env._elided_volatile
        before = env.checkpoints
        env.sync()  # plain log flush, no escalation
        assert env.checkpoints == before
        env2 = reopen(device, log_page_values=False)
        assert value_bytes(env2.get(DATA, b"g\x00\x01")) == b"\x11" * 4096

    def test_elided_pages_survive_crash_after_sync(self):
        env, device = make_env(log_page_values=False)
        for i in range(20):
            env.insert(DATA, b"f\x00" + bytes([i]), PageFrame(bytes([i]) * 4096))
        env.sync()
        env2 = reopen(device, log_page_values=False)
        for i in range(20):
            got = env2.get(DATA, b"f\x00" + bytes([i]))
            assert value_bytes(got) == bytes([i]) * 4096
        assert env2.recovery_lost == 0

    def test_value_logged_mode_replays_pages_from_log(self):
        env, device = make_env(log_page_values=True)
        env.checkpoint()
        env.insert(DATA, b"g\x00\x01", PageFrame(b"\x11" * 4096))
        env.sync()  # log flush only; page value is in the log
        env2 = reopen(device, log_page_values=True)
        assert value_bytes(env2.get(DATA, b"g\x00\x01")) == b"\x11" * 4096

    def test_metadata_sync_stays_cheap(self):
        env, device = make_env(log_page_values=False)
        env.insert(META, b"k", b"v")
        before = env.checkpoints
        env.sync()
        assert env.checkpoints == before  # no escalation for small values


class TestDeferredInserts:
    """``defer`` logs an insert now; a checkpoint puts it in the tree
    unless a later logged op on its key came first."""

    def test_a_checkpoint_folds_what_no_later_op_superseded(self):
        env, device = make_env()
        for key in (b"kept", b"inserted", b"deleted", b"r-ranged", b"batched", b"m/x"):
            env.defer(META, key, b"deferred")
        env.insert(META, b"inserted", b"newer")
        env.delete(META, b"deleted")
        env.range_delete(META, b"r", b"s")
        env.apply_batch([
            (OP_DELETE, META, b"batched", b"", 0),
            (OP_MOVE, META, b"m/", b"n/", META),
        ])
        assert env.deferred_in(META, b"", b"z") == [(b"kept", b"deferred")]
        assert env.get(META, b"kept") is None
        env.checkpoint()
        assert env.deferred_count == 0
        env.insert(META, b"after", b"logged")
        env.sync()
        for state in (env, reopen(device)):
            assert state.get(META, b"kept") == b"deferred"
            assert state.get(META, b"inserted") == b"newer"
            # The move carries a deferred insert, as replay would.
            assert state.get(META, b"n/x") == b"deferred"
            for gone in (b"deleted", b"r-ranged", b"batched", b"m/x"):
                assert state.get(META, gone) is None, gone

    def test_replay_matches_the_live_state_without_a_checkpoint(self):
        env, device = make_env()
        env.defer(META, b"m/x", b"deferred")
        env.defer(META, b"gone", b"deferred")
        env.apply_batch([(OP_MOVE, META, b"m/", b"n/", META)])
        env.range_delete(META, b"gone", b"gonf")
        env.sync()
        state = reopen(device)
        assert state.recovered_entries == 4
        assert state.get(META, b"n/x") == env.get(META, b"n/x") == b"deferred"
        assert state.get(META, b"gone") is None
        assert env.deferred_count == 0


class TestHousekeeping:
    def test_periodic_checkpoint_by_sim_time(self):
        cfg = small_cfg(checkpoint_period=0.001)
        env, device = make_env(cfg)
        before = env.checkpoints
        for i in range(3000):
            env.insert(META, b"k%05d" % i, b"v" * 64)
        assert env.checkpoints > before

    def test_log_full_forces_checkpoint(self):
        env, device = make_env()
        env.wal.region_size = 128 * 1024  # shrink the circular region
        before = env.checkpoints
        for i in range(3000):
            env.insert(META, b"k%05d" % i, b"v" * 64)
        assert env.checkpoints > before

    def test_cache_stays_within_budget(self):
        cfg = small_cfg(cache_bytes=64 * 1024)
        env, device = make_env(cfg)
        for i in range(4000):
            env.insert(META, b"key%05d" % i, b"value" * 10)
        cached = sum(recounted_node_bytes(n) for n, _o in env.cache._nodes.values())
        assert cached <= cfg.cache_bytes * 1.5
        assert env.cache.evictions > 0
