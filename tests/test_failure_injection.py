"""Failure-injection tests: torn writes, corrupted media, crash storms.

These exercise the recovery paths the paper relies on: CRC-checked log
entries, CRC-checked nodes, ping-pong superblocks, and the
prefix-of-the-log crash contract.
"""

import random

import pytest

from repro.core.env import DATA, META
from repro.core.messages import PageFrame, value_bytes
from tests.conftest import LAYOUT, make_env, reopen


class TestTornLog:
    def test_torn_tail_entry_is_discarded_cleanly(self):
        env, device = make_env()
        for i in range(50):
            env.insert(META, b"k%02d" % i, b"v")
        env.sync()
        for i in range(50, 60):
            env.insert(META, b"k%02d" % i, b"late")
        env.wal.flush(durable=False)
        # Tear the last flushed bytes (simulate a partial sector write).
        head = env.wal.head
        device.store.write(LAYOUT.log_base + head - 7, b"\x00" * 7)
        env2 = reopen(device)
        # The synced prefix survives; the torn suffix is dropped
        # without corrupting anything.
        for i in range(50):
            assert env2.get(META, b"k%02d" % i) == b"v"
        for i in range(50, 60):
            assert env2.get(META, b"k%02d" % i) in (None, b"late")

    def test_garbage_in_log_region_is_ignored(self):
        env, device = make_env()
        env.insert(META, b"k", b"v")
        env.sync()
        device.store.write(LAYOUT.log_base + env.wal.head + 4096, b"\xa5" * 512)
        env2 = reopen(device)
        assert env2.get(META, b"k") == b"v"


class TestCorruptNodes:
    def test_checkpointed_node_corruption_is_detected(self):
        from repro.check.fsck import fsck_device
        from repro.core.serialize import ChecksumError

        env, device = make_env()
        for i in range(300):
            env.insert(META, b"key%04d" % i, b"value" * 5)
        env.close()
        # Corrupt a byte inside the meta tree region.
        root_off, root_len = env.meta.blockman.lookup(env.meta.root_id)
        device.store.write(
            LAYOUT.meta_base + root_off + root_len // 2, b"\xff"
        )
        # The offline checker flags the damage up front ...
        report = fsck_device(
            device.crash_image(),
            log_size=LAYOUT.log_size,
            meta_size=LAYOUT.meta_size,
        )
        assert not report.ok
        assert any("unreadable" in e for e in report.errors)
        # ... and the runtime CRC check catches it on first touch.
        env2 = reopen(device, fsck=False)
        with pytest.raises(ChecksumError):
            env2.get(META, b"key0000")


    def test_a_pread_verifies_the_basement_it_reads_and_no_other(self):
        """Through a real mount at the benchmarks' geometry: a cold
        4 KiB pread decodes one basement of the leaf and is stopped by
        damage there; damage in a sibling basement leaves the pread
        alone, is reported by fsck, and stops whatever loads it."""
        from repro.betrfs.filesystem import MountOptions, make_betrfs
        from repro.check.fsck import fsck_mount
        from repro.core.keys import data_key
        from repro.core.serialize import ChecksumError, decode_leaf_header

        fs = make_betrfs("BetrFS v0.6", MountOptions())
        v, tree = fs.vfs, fs.env.data
        body = b"".join(bytes([i % 251]) * 4096 for i in range(256))
        v.create("/big")
        v.write("/big", 0, body)
        v.sync()
        v.drop_caches()
        store, base = fs.device.store, fs.storage.layout.file_base(tree.file_name)
        # The leaf, and in it the basement, that holds block 180.
        key = data_key("/big", 180)
        leaves = []
        for node_id, (off, ln) in tree.blockman.table.items():
            if node_id != tree.root_id:
                header = decode_leaf_header(store.read(base + off, ln), ln)
                if header.basement_first_keys[0] <= key:
                    leaves.append((header.basement_first_keys, node_id, off, header))
        firsts, node_id, off, header = max(leaves)
        needed = max(i for i, first in enumerate(firsts) if first <= key)
        sibling = 0 if needed else 1
        assert len(firsts) > 2

        def flip(basement):
            b_off, b_ln, _crc = header.basement_extents[basement]
            at = base + off + b_off + b_ln // 2
            store.write(at, bytes([store.read(at, 1)[0] ^ 0x01]))

        flip(sibling)
        loads = tree.stats.partial_leaf_loads
        assert v.read("/big", 180 * 4096, 4096) == body[180 * 4096 : 181 * 4096]
        assert tree.stats.partial_leaf_loads == loads + 1
        report = fsck_mount(fs)
        assert [e for e in report.errors if f"node {node_id} " in e and f"basement {sibling} " in e]
        with pytest.raises(ChecksumError):  # a scan loads the rest of the leaf
            fs.env.range_query(DATA, data_key("/big", 0), data_key("/big", 256))
        with pytest.raises(ChecksumError):  # ... and so does a flush into it
            tree._apply_to_leaf(tree._load_node(node_id), [], None)
        v.drop_caches()
        with pytest.raises(ChecksumError):  # cold and sequential: the leaf whole
            v.read("/big", 0, len(body))
        flip(sibling)
        assert fsck_mount(fs).ok
        flip(needed)
        v.drop_caches()
        with pytest.raises(ChecksumError, match=f"basement {needed} "):
            v.read("/big", 180 * 4096, 4096)


class TestCrashStorm:
    def test_crash_storm_full_stack(self):
        env, device = make_env()
        expected = {}
        rng = random.Random(9)
        for generation in range(5):
            for _ in range(30):
                k = b"g%02d-%02d" % (generation, rng.randrange(30))
                v = b"gen%d" % generation
                env.insert(META, k, v)
                expected[k] = v
            if generation % 2:
                env.checkpoint()
            else:
                env.sync()
            env = reopen(device)  # crash + reboot from the device image
            device = env.storage.device  # continue on the rebooted disk
            for k, v in expected.items():
                assert env.get(META, k) == v, (generation, k)

    def test_data_pages_across_crash_storm(self):
        env, device = make_env(log_page_values=False)
        pages = {}
        for round_no in range(3):
            for i in range(30):
                key = b"blk\x00" + bytes([round_no, i])
                body = bytes([round_no * 16 + i % 16]) * 4096
                env.insert(DATA, key, PageFrame(body))
                pages[key] = body
            env.sync()
            env = reopen(device)  # crash + reboot from the device image
            device = env.storage.device  # continue on the rebooted disk
            for key, body in pages.items():
                assert value_bytes(env.get(DATA, key)) == body


class TestPlanDrivenCrashes:
    """The same failure shapes the ad-hoc tests above poke by hand,
    expressed as repro.crashmc crash plans: the volatile write cache
    produces the torn/lost states by construction instead of byte
    surgery at magic offsets."""

    def _stack(self):
        from repro.crashmc.explore import _Stack

        return _Stack()

    def _ops(self, *ops):
        from repro.crashmc import Oracle

        stack = self._stack()
        oracle = Oracle()
        for op in ops:
            oracle.begin(op)
            stack.apply(op)
            oracle.commit(op)
        return stack, oracle

    def test_torn_log_tail_via_plan(self):
        """Engine-driven version of test_torn_tail_entry_is_discarded:
        tear the unflushed WAL write at every sector cut instead of
        zeroing bytes at a hand-computed offset."""
        from repro.crashmc import Op, run_case
        from repro.crashmc.plan import CrashPlan
        from repro.crashmc.explore import VIOLATION
        from repro.device.block import CacheRecord

        ops = [Op("insert", META, b"k%02d" % i, b"v") for i in range(50)]
        ops.append(Op("sync"))
        ops += [Op("insert", META, b"k%02d" % i, b"late") for i in range(50, 60)]
        ops.append(Op("wflush"))
        stack, oracle = self._ops(*ops)
        writes = [
            r for r in stack.device.unflushed() if r.kind == CacheRecord.WRITE
        ]
        assert writes, "wflush produced no at-risk log write"
        sector = stack.device.profile.sector
        last = writes[-1]
        sectors = (last.length + sector - 1) // sector
        seqs = tuple(r.seq for r in stack.device.unflushed())
        for cut in range(1, max(sectors, 2)):
            plan = CrashPlan(selected=seqs, torn_tail_sectors=cut)
            result = run_case(stack, oracle, plan)
            assert result.status != VIOLATION, (cut, result.detail)

    def test_crash_storm_via_plans(self):
        """Engine-driven version of test_crash_storm_full_stack: after
        each generation, every prefix of the unflushed commands must
        recover oracle-consistent."""
        from repro.crashmc import Op, Oracle, run_case
        from repro.crashmc.plan import CrashPlan
        from repro.crashmc.explore import VIOLATION

        rng = random.Random(9)
        stack = self._stack()
        oracle = Oracle()
        cases = 0
        for generation in range(4):
            ops = [
                Op(
                    "insert", META,
                    b"g%02d-%02d" % (generation, rng.randrange(30)),
                    b"gen%d" % generation,
                )
                for _ in range(20)
            ]
            ops.append(Op("wflush"))
            ops.append(Op("checkpoint" if generation % 2 else "sync"))
            for op in ops:
                oracle.begin(op)
                stack.apply(op)
                oracle.commit(op)
            seqs = [r.seq for r in stack.device.unflushed()]
            for i in range(len(seqs) + 1):
                plan = CrashPlan(selected=tuple(seqs[:i]))
                result = run_case(stack, oracle, plan)
                assert result.status != VIOLATION, (
                    generation, plan.describe(), result.detail,
                )
                cases += 1
        assert cases >= 4  # at least the empty plan per generation

    def test_corrupt_node_via_media_plan(self):
        """Engine-driven version of the node-corruption test: a
        bit-flip media plan inside the checkpointed meta region must be
        *detected* (fsck or checksum), never silently absorbed."""
        from repro.crashmc import Op, run_case
        from repro.crashmc.plan import CrashPlan
        from repro.crashmc.explore import VIOLATION

        ops = [
            Op("insert", META, b"key%04d" % i, b"value" * 5) for i in range(300)
        ]
        ops.append(Op("checkpoint"))
        stack, oracle = self._ops(*ops)
        root_off, root_len = stack.env.meta.blockman.lookup(stack.env.meta.root_id)
        offset = stack.layout.meta_base + root_off + root_len // 2
        result = run_case(stack, oracle, CrashPlan(bitflips=((offset, 0x80),)))
        assert result.status != VIOLATION, result.detail
        assert result.status == "detected", result
        assert result.stage in ("fsck", "exception")


class TestLogWrapUnderLoad:
    def test_tiny_log_region_forces_checkpoints_but_stays_correct(self):
        env, device = make_env()
        env.wal.region_size = 64 * 1024
        for i in range(2000):
            env.insert(META, b"key%05d" % i, b"val" * 8)
        env.sync()
        assert env.checkpoints > 0
        env2 = reopen(device)
        for i in range(0, 2000, 97):
            assert env2.get(META, b"key%05d" % i) == b"val" * 8
