"""Tests for repro.crashmc: the volatile write cache and the
crash-state exploration engine."""

import json
import os
import random
import subprocess
import sys

import pytest

from repro.core.env import META
from repro.crashmc import (
    CrashExplorer,
    CrashPlan,
    Op,
    Oracle,
    enumerate_plans,
    media_plans,
    run_case,
)
from repro.crashmc.explore import (
    CLEAN,
    DETECTED,
    VIOLATION,
    CaseResult,
    _Stack,
)
from repro.crashmc.oracle import KINDS
from repro.crashmc.shrink import (
    load_repro,
    replay_repro,
    repro_dict,
    save_repro,
    shrink_plan,
)
from repro.crashmc.workload import WORKLOADS
from repro.betrfs import make_betrfs
from repro.betrfs.filesystem import MountOptions
from repro.check.fsck import fsck_mount
from repro.core.serialize import ChecksumError, decode_node
from repro.device.block import BlockDevice, CacheRecord, MediaError
from repro.harness.mt import device_sha256
from repro.device.clock import SimClock
from repro.model.profiles import COMMODITY_SSD
from tests.conftest import newest_slot

MIB = 1 << 20
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "crashmc")


def raw_device(volatile=True):
    return BlockDevice(SimClock(), COMMODITY_SSD, volatile_cache=volatile)


# ======================================================================
# Volatile-cache epoch recording (device layer)
# ======================================================================
class TestEpochRecording:
    def test_writes_group_into_barrier_epochs(self):
        dev = raw_device()
        dev.write(0, b"a" * 512)
        dev.write(4096, b"b" * 512)
        dev.flush()
        dev.write(8192, b"c" * 512)
        assert dev.sealed_epochs() == 1
        sealed = dev.epoch_records(0)
        assert [r.offset for r in sealed] == [0, 4096]
        assert [r.seq for r in sealed] == [0, 1]
        open_recs = dev.unflushed()
        assert [r.offset for r in open_recs] == [8192]
        assert open_recs[0].seq == 2

    def test_discards_are_recorded(self):
        dev = raw_device()
        dev.write(0, b"x" * 4096)
        dev.discard(0, 4096)
        kinds = [r.kind for r in dev.unflushed()]
        assert kinds == [CacheRecord.WRITE, CacheRecord.DISCARD]
        assert dev.unflushed()[1].length == 4096

    def test_enable_is_idempotent_and_snapshots_base(self):
        dev = raw_device(volatile=False)
        dev.write(0, b"pre-enable")
        dev.enable_volatile_cache()
        dev.enable_volatile_cache()
        dev.write(4096, b"post")
        # The pre-enable write is part of the durable base: a crash
        # dropping everything still has it.
        image = dev.crash_image(CrashPlan())
        assert image.store.read(0, 10) == b"pre-enable"
        assert image.store.read(4096, 4) == b"\x00" * 4

    def test_plan_requires_volatile_mode(self):
        dev = raw_device(volatile=False)
        with pytest.raises(ValueError, match="volatile-cache"):
            dev.crash_image(CrashPlan())

    def test_plan_epoch_out_of_range(self):
        dev = raw_device()
        dev.write(0, b"x")
        dev.flush()
        with pytest.raises(ValueError, match="out of range"):
            dev.crash_image(CrashPlan(epoch=5))

    def test_volatile_mode_is_a_pure_observer(self):
        """Same op sequence, durable vs volatile device: bit-identical
        contents, stats, and simulated time."""

        def drive(dev):
            for i in range(40):
                dev.write(i * 8192, bytes([i]) * 4096)
                if i % 7 == 0:
                    dev.flush()
            dev.discard(8192, 4096)
            dev.read(0, 4096)
            dev.flush()
            return dev

        a = drive(raw_device(volatile=False))
        b = drive(raw_device(volatile=True))
        assert a.store.snapshot() == b.store.snapshot()
        assert a.clock.now == b.clock.now
        assert (a.stats.reads, a.stats.writes, a.stats.flushes) == (
            b.stats.reads, b.stats.writes, b.stats.flushes
        )


# ======================================================================
# Crash-image materialization
# ======================================================================
class TestCrashImages:
    def test_selected_subset_and_losses(self):
        dev = raw_device()
        dev.write(0, b"A" * 512)
        dev.write(4096, b"B" * 512)
        dev.write(8192, b"C" * 512)
        seqs = [r.seq for r in dev.unflushed()]
        image = dev.crash_image(CrashPlan(selected=(seqs[0], seqs[2])))
        assert image.store.read(0, 3) == b"AAA"
        assert image.store.read(4096, 3) == b"\x00\x00\x00"  # lost
        assert image.store.read(8192, 3) == b"CCC"
        # The live device is unperturbed.
        assert dev.store.read(4096, 3) == b"BBB"

    def test_earlier_epochs_are_always_durable(self):
        dev = raw_device()
        dev.write(0, b"first")
        dev.flush()
        dev.write(4096, b"second")
        dev.flush()
        dev.write(8192, b"third")
        # Crash at epoch 1 with nothing selected: epoch 0 durable,
        # epoch 1 and the open epoch lost.
        image = dev.crash_image(CrashPlan(selected=(), epoch=1))
        assert image.store.read(0, 5) == b"first"
        assert image.store.read(4096, 6) == b"\x00" * 6
        assert image.store.read(8192, 5) == b"\x00" * 5

    def test_tearing_is_sector_granular(self):
        dev = raw_device()
        sector = dev.profile.sector
        payload = b"1" * sector + b"2" * sector + b"3" * sector
        dev.write(0, payload)
        seq = dev.unflushed()[0].seq
        image = dev.crash_image(
            CrashPlan(selected=(seq,), torn_tail_sectors=1)
        )
        assert image.store.read(0, sector) == b"1" * sector
        assert image.store.read(sector, 2 * sector) == b"\x00" * (2 * sector)

    def test_bitflip_and_bad_sector_faults(self):
        dev = raw_device()
        sector = dev.profile.sector
        dev.write(0, b"\x00" * sector * 2)
        dev.flush()
        seqless = CrashPlan(bitflips=((10, 0x40),), bad_sectors=(1,))
        image = dev.crash_image(seqless)
        assert image.store.read(10, 1) == b"\x40"
        image.read(0, 16)  # sector 0 still readable
        with pytest.raises(MediaError):
            image.read(sector, 16)
        # fsck-style direct store access bypasses the read path.
        assert len(image.store.read(sector, 16)) == 16

    def test_planless_image_keeps_historical_behaviour(self):
        dev = raw_device()
        dev.write(0, b"x" * 512)  # unflushed
        image = dev.crash_image()
        # Durable-cache semantics: everything accepted is in the image.
        assert image.store.read(0, 3) == b"xxx"

    def test_replayed_and_torn_segment_images_read_back_and_fsck_clean(self):
        """Cache records keep a node's segments, so a crash image is
        replayed from the very ``bytes`` the live device holds; a torn
        node write cuts a segment, and the one reader still answers —
        with the data, or a ``ChecksumError`` for the torn node."""
        fs = make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32))
        fs.device.enable_volatile_cache()
        for rnd in range(2):
            for i in range(6):
                if not rnd:
                    fs.vfs.create(f"/f{i}")
                fs.vfs.write(f"/f{i}", rnd * 4096, bytes([16 * rnd + i + 1]) * (5 - 4 * rnd) * 4096)
            fs.sync()
            fs.env.checkpoint()
        dev = fs.device
        live = {id(seg) for _off, segs in dev.store.snapshot() for seg in segs}
        # Every accepted command replayed: the live image, shared.
        replayed = dev.crash_image(CrashPlan(selected=[r.seq for r in dev.unflushed()]))
        assert device_sha256(replayed) == device_sha256(dev)
        assert any(len(segs) > 2 for _off, segs in replayed.store.snapshot())
        assert all(id(seg) in live for _off, segs in replayed.store.snapshot() for seg in segs)
        # The last epoch of node writes, its leaf torn halfway.
        epoch = max(
            e for e in range(dev.sealed_epochs())
            if any(len(r.data) > 2 for r in dev.epoch_records(e))
        )
        records = dev.epoch_records(epoch)
        leaf = records[-1]
        assert len(leaf.data) > 2
        torn = dev.crash_image(CrashPlan(
            selected=[r.seq for r in records], epoch=epoch,
            torn_tail_sectors=leaf.length // dev.profile.sector // 2,
        ))
        with pytest.raises(ChecksumError, match="basement"):
            decode_node(torn.store.read_segments(leaf.offset, leaf.length), aligned=True)
        for image in (replayed, torn):
            assert fsck_mount(fs, image).ok
            back = fs.remount(image)
            for i in range(6):
                assert back.vfs.read(f"/f{i}", 0, 8192) == bytes([i + 1]) * 4096 + bytes([i + 17]) * 4096


# ======================================================================
# Plan enumeration
# ======================================================================
def fake_records(n, size=512):
    return [
        CacheRecord(seq, CacheRecord.WRITE, seq * 8192, b"x" * size)
        for seq in range(n)
    ]


class TestEnumeration:
    def test_small_epochs_are_exhaustive(self):
        records = fake_records(4)
        plans = enumerate_plans(
            records, epoch=None, sector=4096,
            rng=random.Random(1), exhaustive_k=6,
        )
        subsets = {p.selected for p in plans if p.torn_tail_sectors is None}
        assert len(subsets) == 2 ** 4  # every subset, empty included

    def test_large_epochs_are_sampled_and_bounded(self):
        records = fake_records(20)
        plans = enumerate_plans(
            records, epoch=2, sector=4096,
            rng=random.Random(7), exhaustive_k=6, samples=24,
        )
        # prefixes (21) + <=24 samples + tear variants; far below 2^20.
        assert len(plans) < 200
        prefix_sets = [p.selected for p in plans if p.kind == "prefix"]
        assert () in prefix_sets
        assert tuple(range(20)) in prefix_sets
        assert all(p.epoch == 2 for p in plans)

    def test_enumeration_is_deterministic(self):
        records = fake_records(12)
        a = enumerate_plans(
            records, epoch=None, sector=4096, rng=random.Random(3)
        )
        b = enumerate_plans(
            records, epoch=None, sector=4096, rng=random.Random(3)
        )
        assert [p.key() for p in a] == [p.key() for p in b]

    def test_tear_variants_only_for_multisector_writes(self):
        sector = 4096
        small = fake_records(2, size=512)  # single-sector: cannot tear
        plans = enumerate_plans(
            small, epoch=None, sector=sector, rng=random.Random(0)
        )
        assert not any(p.torn_tail_sectors is not None for p in plans)
        big = fake_records(2, size=4 * sector)
        plans = enumerate_plans(
            big, epoch=None, sector=sector, rng=random.Random(0)
        )
        torn = [p for p in plans if p.torn_tail_sectors is not None]
        assert torn
        assert all(p.torn_tail_sectors in (1, 2) for p in torn)

    def test_media_plans_stay_inside_regions(self):
        plans = media_plans(
            [(1000, 500), (8000, 100)],
            sector=512, rng=random.Random(5), count=12,
        )
        assert len(plans) == 12
        for p in plans:
            assert p.is_media_fault
            for off, _mask in p.bitflips:
                assert 1000 <= off < 1500 or 8000 <= off < 8100
            for s in p.bad_sectors:
                assert 1000 <= s * 512 + 511 and s * 512 < 8100


# ======================================================================
# Oracle
# ======================================================================
class TestOracle:
    def drive(self):
        o = Oracle()
        for op in [
            Op("insert", META, b"a", b"1"),
            Op("insert", META, b"b", b"2"),
            Op("sync"),
        ]:
            o.begin(op)
            o.commit(op)
        for op in [
            Op("insert", META, b"c", b"3"),
            Op("delete", META, b"a"),
        ]:
            o.begin(op)
            o.commit(op)
        return o

    def test_accepts_every_pending_prefix(self):
        o = self.drive()
        states = [
            {b"a": b"1", b"b": b"2"},                 # lost both pending
            {b"a": b"1", b"b": b"2", b"c": b"3"},     # lost the delete
            {b"b": b"2", b"c": b"3"},                 # lost nothing
        ]
        for state in states:
            verdict = o.check(lambda t, k, s=state: s.get(k))
            assert verdict.ok, (state, verdict.detail)

    def test_rejects_lost_synced_data(self):
        o = self.drive()
        verdict = o.check(lambda t, k: {b"c": b"3"}.get(k))  # b vanished
        assert not verdict.ok
        assert b"b" in verdict.detail.encode() or "b'b'" in verdict.detail

    def test_rejects_non_prefix_application(self):
        o = self.drive()
        # The delete applied without the preceding insert of c.
        verdict = o.check(lambda t, k: {b"b": b"2"}.get(k))
        assert not verdict.ok

    def test_patch_zero_extends_like_the_real_codec(self):
        o = Oracle()
        for op in [
            Op("insert", META, b"p", b"AB"),
            Op("patch", META, b"p", b"ZZ", offset=4),
            Op("sync"),
        ]:
            o.begin(op)
            o.commit(op)
        verdict = o.check(lambda t, k: {b"p": b"AB\x00\x00ZZ"}.get(k))
        assert verdict.ok, verdict.detail

    def test_range_delete_in_models(self):
        o = Oracle()
        for op in [
            Op("insert", META, b"x1", b"1"),
            Op("insert", META, b"x2", b"2"),
            Op("sync"),
            Op("range_delete", META, b"x1", end=b"x2"),  # kills x1 only
        ]:
            o.begin(op)
            o.commit(op)
        ok_states = [{b"x1": b"1", b"x2": b"2"}, {b"x2": b"2"}]
        for state in ok_states:
            assert o.check(lambda t, k, s=state: s.get(k)).ok
        assert not o.check(lambda t, k: {b"x1": b"1"}.get(k)).ok


# ======================================================================
# Shrinker
# ======================================================================
class TestShrinker:
    def test_shrinks_to_one_minimal(self):
        plan = CrashPlan(
            selected=(1, 2, 3, 4),
            torn_tail_sectors=2,
            bitflips=((100, 1), (200, 2)),
            bad_sectors=(7, 9),
        )

        def still_fails(p):
            return 3 in p.selected and len(p.bitflips) >= 1

        shrunk = shrink_plan(plan, still_fails)
        assert shrunk.selected == (3,)
        assert len(shrunk.bitflips) == 1
        assert shrunk.torn_tail_sectors is None
        assert shrunk.bad_sectors == ()
        # 1-minimal: removing anything else makes it pass.
        assert not still_fails(shrunk.without_seq(3))
        assert not still_fails(shrunk.without_bitflip(0))

    def test_respects_probe_budget(self):
        calls = []

        def still_fails(p):
            calls.append(p)
            return True

        shrink_plan(
            CrashPlan(selected=tuple(range(50))), still_fails, max_probes=10
        )
        assert len(calls) <= 11


# ======================================================================
# Plan serialization / repro files
# ======================================================================
class TestReproFiles:
    def test_plan_roundtrip(self):
        plan = CrashPlan(
            selected=(3, 1), epoch=2, torn_tail_sectors=1,
            bitflips=((9, 4),), bad_sectors=(5,), kind="torn",
        )
        back = CrashPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert back == plan
        assert back.selected == (1, 3)  # canonical order

    def test_save_load_replay(self, tmp_path):
        path = str(tmp_path / "repro.json")
        # An empty plan at the first op: everything lost, which must be
        # an acceptable (clean) crash state.
        save_repro(path, repro_dict("tokubench", 0, 0, CrashPlan()))
        repro = load_repro(path)
        result = replay_repro(repro)
        assert result.status == CLEAN, (result.stage, result.detail)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_replays_on_the_stack_the_workload_was_explored_on(
        self, tmp_path, workload
    ):
        """Every workload's repro file replays — crashed inside an op
        of its most specific kind (``xrename`` on the two-volume
        ``xshard_rename`` stack) — instead of dying in ``apply``."""
        kinds = [op.kind for op in WORKLOADS[workload](3)]
        op_index = kinds.index(max(set(kinds), key=KINDS.index))
        path = str(tmp_path / "repro.json")
        save_repro(path, repro_dict(workload, 3, op_index, CrashPlan()))
        result = replay_repro(load_repro(path))
        assert isinstance(result, CaseResult)
        assert result.status == CLEAN, (result.stage, result.detail)

    def test_pinned_cross_shard_rename_recovers_clean(self):
        """`xshard_rename` (seed 0) crashed inside op 128, a move of
        the name op 125 moved, with the open epoch's later log write
        persisted (command 35, op 125's move) and the earlier one lost
        (34): recovery stops at the gap, so neither move lands.  On
        one log there is no replay order across volumes to get
        wrong."""
        repro = load_repro(os.path.join(FIXTURES, "xshard_rename_op128.json"))
        result = replay_repro(repro)
        assert result.status == CLEAN, (result.stage, result.detail)

    def test_the_documented_replay_command_runs_clean(self):
        """``python -m repro.crashmc.shrink REPRO.json`` replays with no
        warning: the package does not import the module ``-m`` runs."""
        path = os.path.join(FIXTURES, "xshard_rename_op128.json")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.crashmc.shrink", path],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[xshard_rename seed=0 op=128] clean\n"
        assert done.stderr == ""

    def test_load_rejects_unknown_version(self, tmp_path):
        path = str(tmp_path / "repro.json")
        save_repro(path, {"version": 99})
        with pytest.raises(ValueError, match="version"):
            load_repro(path)


# ======================================================================
# Explorer end-to-end
# ======================================================================
class TestExplorer:
    def test_unused_plan_quota_goes_to_workloads_with_more_plans(self):
        needs = [907, 309, 527, 712]  # the four workloads at seed 0
        budgets = CrashExplorer._budgets([750] * 4, needs)
        assert [plans for plans, _media in budgets] == needs
        assert sum(plans + media for plans, media in budgets) == 3000
        assert min(media for _plans, media in budgets) == 75
        # No workload can spare any: every share splits as it always did.
        assert CrashExplorer._budgets([50] * 4, needs) == [(45, 5)] * 4

    def test_bounded_run_is_deterministic_and_clean(self):
        def run():
            return json.dumps(
                CrashExplorer(seed=3, budget=16).run().to_dict(),
                sort_keys=True,
            )

        a, b = run(), run()
        assert a == b
        summary = json.loads(a)
        assert summary["cases"] == 16
        assert summary["violations"] == 0
        assert len(summary["workloads"]) == 4
        for workload in summary["workloads"]:
            assert workload["plans_covered"] <= workload["plans_enumerated"]
            assert workload["plans_covered"] <= workload["cases"]

    def test_counters_track_cases(self):
        ex = CrashExplorer(seed=1, budget=10, workloads=("tokubench",))
        summary = ex.run()
        reg = ex.obs.registry
        assert reg.find("crashmc.cases", layer="crashmc").value == summary.cases
        assert reg.find("crashmc.crash_points", layer="crashmc").value > 0
        assert (
            reg.find("crashmc.violations", layer="crashmc").value
            == summary.violations
        )

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            CrashExplorer(seed=0, budget=1, workloads=("nope",))

    def test_run_case_flags_silent_data_loss(self):
        """A crash state that silently loses synced data must be a
        violation: wipe the whole device behind the oracle's back."""
        stack = _Stack()
        oracle = Oracle()
        for op in [Op("insert", META, b"k", b"v"), Op("checkpoint")]:
            oracle.begin(op)
            stack.apply(op)
            oracle.commit(op)
        # Rebuild the stack from scratch (empty device) while keeping
        # the oracle's belief that b"k" is durable.
        fresh = _Stack()
        result = run_case(fresh, oracle, CrashPlan())
        assert result.status == VIOLATION
        assert result.stage == "oracle"

    def test_harness_torture_cli(self, capsys):
        from repro.harness.__main__ import main as harness_main

        rc = harness_main(["torture", "--seed", "5", "--budget", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out)
        assert summary["cases"] == 8
        assert summary["violations"] == 0


class TestSuperblockMediaFault:
    """Satellite regression: a flipped byte in the newest superblock
    slot must surface as DETECTED (fsck reports the valid-but-stale
    fallback) — never as a silent fallback to the older checkpoint."""

    def _stack_with_two_checkpoints(self):
        stack = _Stack()
        oracle = Oracle()
        ops = [
            Op("insert", META, b"alpha", b"one"),
            Op("checkpoint"),
            Op("insert", META, b"beta", b"two"),
            Op("checkpoint"),
        ]
        for op in ops:
            oracle.begin(op)
            stack.apply(op)
            oracle.commit(op)
        return stack, oracle

    def test_flip_in_newest_slot_is_detected(self):
        stack, oracle = self._stack_with_two_checkpoints()
        base, _sb = newest_slot(stack.device.crash_image().store)
        plan = CrashPlan(bitflips=((base + 20, 0x01),))
        assert plan.is_media_fault
        result = run_case(stack, oracle, plan)
        assert result.status == DETECTED, (result.status, result.detail)
        assert result.stage == "fsck"
        assert "valid-but-stale" in result.detail

    def test_media_sweep_covers_the_superblock_region(self):
        """The sweep regions start at offset 0 now: a seeded run must
        be able to place a fault below log_base."""
        from repro.storage.sfl import SUPERBLOCK_SIZE

        rng = random.Random(0)
        plans = media_plans(
            [(0, SUPERBLOCK_SIZE)], sector=4096, rng=rng, count=8
        )
        assert plans
        for plan in plans:
            for off, _mask in plan.bitflips:
                assert 0 <= off < SUPERBLOCK_SIZE
            for sector in plan.bad_sectors:
                assert 0 <= sector * 4096 < SUPERBLOCK_SIZE
