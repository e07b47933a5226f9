"""Tests for ``repro.shard``: the partitioned namespace.

The PR's shard invariants:

* routing is **total** (every path owns exactly one shard index in
  range) and every child routes with its directory — hypothesis
  properties;
* an N=1 sharded run is **bit-identical** to the unsharded mount
  (device sha256 and simulated clock);
* the two-phase cross-shard protocol leaves no intent behind on the
  happy path, rolls forward idempotently on recovery, and survives a
  bounded crashmc sweep with zero oracle violations;
* per-shard volumes fsck clean and the load/imbalance gauges report.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.betrfs.filesystem import MountOptions, make_betrfs
from repro.check.fsck import fsck_mount
from repro.core.env import DATA, META, KVEnv
from repro.harness.mt import device_sha256, run_mt, to_json
from repro.obs import Observability, session
from repro.shard import (
    INTENT_PREFIX,
    ShardMap,
    ShardedBetrFS,
    make_sharded_betrfs,
    pack_intent,
    parent_dir,
    unpack_intent,
)
from repro.shard.map import _hash_owner
from repro.workloads.mailserver import mailserver_mt
from repro.workloads.scale import SMOKE_SCALE
from repro.workloads.webserver_mt import webserver_mt

paths = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    min_size=1,
    max_size=24,
).map(lambda s: "/" + s)


# ----------------------------------------------------------------------
# ShardMap routing
# ----------------------------------------------------------------------
class TestShardMap:
    def test_parent_dir(self):
        assert parent_dir("/") == "/"
        assert parent_dir("/a") == "/"
        assert parent_dir("/a/b/c") == "/a/b"
        assert parent_dir("/a/b/") == "/a"
        assert parent_dir("name") == ""

    def test_hash_colocates_siblings(self):
        sm = ShardMap(4)
        owners = {sm.owner_of_entry(f"/d/sub/f{i}") for i in range(50)}
        assert owners == {sm.owner_of_children("/d/sub")}

    def test_hash_spreads_structured_directories(self):
        """Sibling dirs differing in a digit must not all collapse onto
        one shard (the crc32-linearity trap the finalizer breaks)."""
        sm = ShardMap(4)
        owners = {
            sm.owner_of_entry(f"/mail/folder{f:02d}/cur/m0") for f in range(10)
        }
        assert len(owners) > 1

    def test_hash_memo_is_bounded_and_routes_unchanged(self):
        """The per-directory memo answers what the hash computes, and
        more directories than it holds only evict older answers."""
        bound = _hash_owner.cache_info().maxsize
        assert bound is not None
        sm = ShardMap(8)
        dirs = [f"/mail/u{i:05d}/cur" for i in range(bound + 100)]
        for _ in range(2):
            for d in dirs:
                assert sm.owner_of_entry(d + "/m0") == _hash_owner.__wrapped__(d, 8)
        assert _hash_owner.cache_info().currsize <= bound

    def test_one_shard_short_circuits(self):
        sm = ShardMap(1)
        assert sm.owner_of_entry("/anything") == 0
        assert sm.owner_of_children("/anything") == 0

    def test_key_routing_strips_block_suffix(self):
        sm = ShardMap(8)
        path = "/a/b/file"
        want = sm.owner_of_entry(path)
        assert sm.owner_of_key(path.encode()) == want
        assert sm.owner_of_key(path.encode() + b"\x00\x00\x00\x07") == want

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardMap(0)
        with pytest.raises(ValueError, match="unknown shard mode"):
            make_sharded_betrfs("BetrFS v0.6", shards=2, mode="range")

    @settings(max_examples=200, deadline=None)
    @given(paths, st.integers(min_value=1, max_value=16))
    def test_routing_total_and_remount_stable(self, path, shards):
        sm = ShardMap(shards)
        owner = sm.owner_of_entry(path)
        assert 0 <= owner < shards
        assert sm.owner_of_key(path.encode()) == owner
        # A re-mount rebuilds the map from its shard count alone.
        assert ShardMap(shards).owner_of_entry(path) == owner

    @settings(max_examples=100, deadline=None)
    @given(paths, st.integers(min_value=2, max_value=8))
    def test_children_stay_in_span(self, dirpath, shards):
        """Every child routes with its directory."""
        sm = ShardMap(shards)
        for child in ("a", "m0001", "zz~"):
            assert sm.owner_of_entry(dirpath + "/" + child) == sm.owner_of_children(
                dirpath
            )


# ----------------------------------------------------------------------
# Two-phase protocol (KV level)
# ----------------------------------------------------------------------
class TestTwoPhase:
    def test_intent_record_round_trip(self):
        inserts = [(2, META, b"/a/k", b"v1"), (0, DATA, b"/a/k", b"\x00" * 64)]
        deletes = [(1, META, b"/b/old"), (1, DATA, b"/b/old")]
        payload = pack_intent(inserts, deletes)
        assert unpack_intent(payload) == (inserts, deletes)
        assert unpack_intent(pack_intent([], [])) == ([], [])

    def _mount(self, shards=4):
        return make_sharded_betrfs("BetrFS v0.6", shards=shards)

    def test_xrename_moves_and_retires_intent(self):
        fs = self._mount()
        env, sm = fs.env, fs.shard_map
        src, dst = b"/dirA/x", b"/other/y"
        # Pick paths on different shards (probe a few suffixes).
        i = 0
        while sm.owner_of_key(src) == sm.owner_of_key(dst):
            dst = b"/other%d/y" % i
            i += 1
        env.insert(META, src, b"payload")
        env.sync()
        env.xrename(META, src, dst)
        assert env.get(META, src) is None
        assert env.get(META, dst) is not None
        assert env.pending_intents() == 0
        assert env.xshard_ops == 1

    def test_xrename_missing_source_is_noop(self):
        fs = self._mount()
        fs.env.xrename(META, b"/no/such", b"/else/where")
        assert fs.env.xshard_ops == 0

    def test_resolve_intents_rolls_forward_idempotently(self):
        fs = self._mount()
        env = fs.env
        # Simulate a crash after phase 1: the intent record is durable
        # but none of the batch has been applied.
        src_shard = fs.shard_map.owner_of_key(b"/src/k")
        dst_shard = fs.shard_map.owner_of_key(b"/dst/k")
        inserts = [(dst_shard, META, b"/dst/k", b"moved")]
        deletes = [(src_shard, META, b"/src/k")]
        env.envs[src_shard].insert(META, b"/src/k", b"moved")
        env.envs[src_shard].insert(
            META, INTENT_PREFIX + b"\x00" * 8, pack_intent(inserts, deletes)
        )
        env.sync()
        assert env.pending_intents() == 1
        assert env.resolve_intents() == 1
        assert env.get(META, b"/dst/k") is not None
        assert env.get(META, b"/src/k") is None
        assert env.pending_intents() == 0
        assert env._intent_seq == 1  # new intents number past survivors
        # A second recovery finds nothing and changes nothing.
        assert env.resolve_intents() == 0


# ----------------------------------------------------------------------
# Sharded mount end-to-end
# ----------------------------------------------------------------------
class TestShardedMount:
    def test_cross_shard_file_rename_via_vfs(self):
        with session(Observability()):
            fs = make_sharded_betrfs("BetrFS v0.6", shards=4)
            vfs, sm = fs.vfs, fs.shard_map
            vfs.mkdir("/a")
            i = 0
            dst_dir = "/b"
            while sm.owner_of_entry("/a/f") == sm.owner_of_entry(
                f"{dst_dir}/f"
            ):
                dst_dir = f"/b{i}"
                i += 1
            vfs.mkdir(dst_dir)
            vfs.create("/a/f")
            vfs.write("/a/f", 0, b"hello shard")
            vfs.fsync("/a/f")
            vfs.rename("/a/f", f"{dst_dir}/f")
            assert fs.backend.cross_renames == 1
            assert fs.env.pending_intents() == 0
            assert vfs.read(f"{dst_dir}/f", 0, 11) == b"hello shard"
            assert not vfs.exists("/a/f")
            assert vfs.readdir(dst_dir) == ["f"]

    def test_directory_rename_survives_a_crash_without_orphans(self):
        """The children live on another volume than the directory's
        entry.  An fsync on the coordinator's volume makes the intent's
        retirement durable; the children's source deletes must be
        durable by then too, or the old names outlive the rename."""
        fs = make_sharded_betrfs("BetrFS v0.6", MountOptions(scale=1 / 64), shards=4)
        vfs, sm = fs.vfs, fs.shard_map
        vfs.mkdir("/d0")
        kids = [f"/d0/f{i}" for i in range(3)]
        for kid in kids:
            vfs.create(kid)
            vfs.write(kid, 0, b"k")
        coord = sm.owner_of_entry("/d0")
        assert {sm.owner_of_entry(kid) for kid in kids} != {coord}
        side = next(
            f"/g{i}" for i in range(100) if sm.owner_of_entry(f"/g{i}") == coord
        )
        vfs.create(side)
        vfs.sync()
        vfs.rename("/d0", "/d2")
        vfs.write(side, 0, b"s")
        vfs.fsync(side)
        after = fs.crash().vfs
        assert not after.exists("/d0") and after.exists("/d2")
        assert [after.exists(kid) for kid in kids] == [False] * 3
        assert [after.exists(kid.replace("/d0", "/d2")) for kid in kids] == [True] * 3

    def test_volumes_fsck_clean_and_gauges_report(self):
        with session(Observability()):
            fs = make_sharded_betrfs("BetrFS v0.6", shards=4)
            vfs = fs.vfs
            vfs.mkdir("/d")
            for i in range(12):
                path = f"/d{i % 3}" if i % 3 else "/d"
                if not vfs.exists(path):
                    vfs.mkdir(path)
                vfs.create(f"{path}/f{i}")
                vfs.write(f"{path}/f{i}", 0, b"x" * 4096)
            vfs.sync()
            report = fsck_mount(fs)
            assert report.ok, report.errors
            # Nothing is checkpointed yet: four log-only volumes.
            assert len(report.warnings) == 4
            assert sum(fs.backend.loads) > 0
            assert fs.load_imbalance() >= 1.0
            reg = fs.obs.registry
            assert reg.find("shard.imbalance", layer="shard") is not None
            assert reg.find("shard.load.00", layer="shard") is not None

    def test_mount_surface_duck_typed_by_perfbench(self):
        """What ``perfbench/`` reads off a mount to tell the two apart
        (it may not be edited, so the attribute surface is pinned)."""
        plain = make_betrfs("BetrFS v0.6")
        assert isinstance(plain.env, KVEnv) and not hasattr(plain.env, "envs")
        assert plain.backend.env is plain.env  # the northbound, no router
        for attr in ("storage", "alloc", "opts", "config"):
            assert hasattr(plain, attr), attr
        assert not hasattr(plain, "shard_map")

        sharded = make_sharded_betrfs("BetrFS v0.6", shards=2)
        assert len(sharded.env.envs) == 2
        assert len(sharded.backend.backends) == 2
        assert len(sharded.storages) == 2
        assert sharded.backend.cross_renames == 0
        assert sharded.shard_map.shards == 2
        assert sharded.load_imbalance() == 1.0

    def test_sharding_requires_sfl(self):
        with pytest.raises(ValueError, match="SFL"):
            make_sharded_betrfs("BetrFS v0.4", shards=2)


# ----------------------------------------------------------------------
# N=1 bit-identity and sharded mt determinism
# ----------------------------------------------------------------------
class TestShardInvariants:
    @pytest.mark.parametrize("workload", [mailserver_mt, webserver_mt])
    def test_one_shard_bit_identical_to_unsharded(self, workload):
        def run(make):
            with session(Observability()):
                fs = make()
                workload(
                    fs, SMOKE_SCALE, sessions=4, seed=7, ops_per_session=40
                )
                return device_sha256(fs.device), fs.clock.now

        plain = run(lambda: make_betrfs("BetrFS v0.6"))
        sharded = run(lambda: make_sharded_betrfs("BetrFS v0.6", shards=1))
        assert sharded == plain

    def test_sharded_mt_summary_deterministic(self):
        def run():
            with session(Observability()):
                return to_json(
                    run_mt(SMOKE_SCALE, sessions=6, seed=7, shards=4)
                )

        a, b = run(), run()
        assert a == b
        summary = json.loads(a)
        assert summary["shards"]["count"] == 4
        assert sum(summary["shards"]["loads"]) > 0
        assert summary["shards"]["imbalance"] >= 1.0
        lock_classes = {
            key.split(":", 1)[0]
            for pair in summary["lock_order"]
            for key in pair
        }
        assert lock_classes <= {"folder"}

    def test_webserver_mt_sharded_affinity(self):
        with session(Observability()):
            summary = run_mt(
                SMOKE_SCALE,
                sessions=6,
                seed=7,
                shards=4,
                workload="webserver_mt",
            )
        affinities = [s["affinity"] for s in summary["per_session"]]
        assert all(a is not None and 0 <= a < 4 for a in affinities)
        assert summary["workload"] == "webserver_mt"

    def test_unknown_mt_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown mt workload"):
            run_mt(SMOKE_SCALE, workload="nope")


# ----------------------------------------------------------------------
# Crash exploration over the sharded stack
# ----------------------------------------------------------------------
class TestShardCrashmc:
    def test_bounded_sweep_zero_violations(self):
        from repro.crashmc import CrashExplorer

        summary = CrashExplorer(
            seed=2, budget=24, workloads=("xshard_rename",)
        ).run()
        assert summary.cases == 24
        assert summary.violations == 0

    def test_sharded_stack_apply_and_reboot(self):
        from repro.crashmc.explore import stack_for
        from repro.crashmc.oracle import Op

        stack, _ = stack_for("xshard_rename")
        stack.apply(Op("insert", META, b"dir00/a", b"v"))
        stack.apply(Op("sync"))
        stack.apply(Op("xrename", META, b"dir00/a", end=b"dir01/a"))
        get = stack.reboot(stack.device.crash_image())
        assert get(META, b"dir00/a") is None
        assert get(META, b"dir01/a") is not None
