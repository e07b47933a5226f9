"""Tests for ``repro.shard``: the partitioned namespace.

The PR's shard invariants:

* routing is **total** (every path owns exactly one shard index in
  range) and every child routes with its directory — hypothesis
  properties;
* an N=1 sharded run is **bit-identical** to the unsharded mount
  (device sha256 and simulated clock);
* a cross-shard move is one record on the device's one log, and
  survives a bounded crashmc sweep with zero oracle violations;
* the volumes fsck clean, the load/imbalance gauges report, and each
  operation reaches the volume its path routes to.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.betrfs.filesystem import MountOptions, make_betrfs
from repro.betrfs.northbound import BetrFSNorthbound
from repro.check.fsck import fsck_mount
from repro.core.env import MAX_VOLUMES, META, KVEnv
from repro.core.messages import value_bytes
from repro.crashmc.explore import stack_for
from repro.crashmc.oracle import Op
from repro.crashmc.workload import xshard_homes
from repro.harness.mt import device_sha256, run_mt, to_json
from repro.obs import Observability, session
from repro.shard import ShardMap, make_sharded_betrfs, parent_dir
from repro.core.shardmap import _hash_owner
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
# Cross-shard moves (KV level, the crash explorer's): one log record
# ----------------------------------------------------------------------
class TestCrossShardBatch:
    def _stack(self):
        stack, _oracle = stack_for("xshard_rename")
        homes = xshard_homes(stack.map)
        assert stack.map.owner_of_key(homes[0]) != stack.map.owner_of_key(homes[1] + b"/y")
        return stack, homes[0] + b"/x", homes[1] + b"/y"

    def test_xrename_moves_in_one_log_record(self):
        stack, src, dst = self._stack()
        stack.apply(Op("insert", META, src, b"payload"))
        stack.apply(Op("sync"))
        appended = stack.wal.entries_appended
        stack.apply(Op("xrename", META, src, end=dst))
        assert stack.wal.entries_appended == appended + 1
        assert stack.env.get(stack._tree(META, src), src) is None
        assert value_bytes(stack.env.get(stack._tree(META, dst), dst)) == b"payload"
        stack.apply(Op("sync"))
        get = stack.reboot(stack.device.crash_image())
        assert get(META, src) is None
        assert value_bytes(get(META, dst)) == b"payload"

    def test_xrename_missing_source_is_noop(self):
        stack, src, dst = self._stack()
        appended = stack.wal.entries_appended
        stack.apply(Op("xrename", META, src, end=dst))
        assert stack.wal.entries_appended == appended


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
            assert vfs.read(f"{dst_dir}/f", 0, 11) == b"hello shard"
            assert not vfs.exists("/a/f")
            assert vfs.readdir(dst_dir) == ["f"]

    def test_directory_rename_survives_a_crash_without_orphans(self):
        """The children live on another volume than the directory's
        entry.  The whole move is one log record, so an fsync of any
        file after it makes every half of it durable: no old name
        outlives the rename."""
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
            # Nothing is checkpointed yet: one log-only image.
            assert len(report.warnings) == 1
            assert sum(fs.backend.loads) > 0
            assert fs.load_imbalance() >= 1.0
            reg = fs.obs.registry
            assert reg.find("shard.imbalance", layer="shard") is not None
            assert reg.find("shard.load.00", layer="shard") is not None

    def test_mount_surface_duck_typed_by_perfbench(self):
        """What ``perfbench/`` reads off a mount (it may not be edited,
        so the attribute surface is pinned): every mount is one
        northbound over one ``KVEnv``; only a sharded one has a map."""
        plain = make_betrfs("BetrFS v0.6")
        sharded = make_sharded_betrfs("BetrFS v0.6", shards=2)
        for mount, volumes in ((plain, 1), (sharded, 2)):
            assert isinstance(mount.env, KVEnv) and not hasattr(mount.env, "envs")
            assert isinstance(mount.backend, BetrFSNorthbound)
            assert mount.backend.env is mount.env
            # Volume 0's southbound holds the log.
            assert mount.storage is mount.storages[0] is mount.env.storage
            assert len(mount.storages) == volumes
            assert len(mount.backend.loads) == volumes
            assert mount.backend.cross_renames == 0
            for attr in ("alloc", "opts", "config"):
                assert hasattr(mount, attr), attr
        assert not hasattr(plain, "shard_map")
        assert sharded.shard_map.shards == 2
        assert sharded.load_imbalance() == 1.0

    def test_deferred_creates_gauge_counts_every_volume(self):
        with session(Observability()):
            fs = make_sharded_betrfs("BetrFS v0.6", shards=4)
        vfs, sm = fs.vfs, fs.shard_map
        dirs = [f"/d{i}" for i in range(8)]
        for d in dirs:
            vfs.mkdir(d)
        vfs.sync()
        for i in range(16):
            vfs.create(f"{dirs[i % 8]}/f{i}")
        assert len({sm.owner_of_children(d) for d in dirs}) > 1
        gauge = fs.obs.registry.find("northbound.deferred_creates", layer="northbound")
        assert fs.backend.deferred_creates == gauge.value == 16

    def test_rmdir_range_deletes_land_where_the_children_live(self):
        """§4's directory-wide range deletes exist to meet the stale
        per-file range deletes, which sit on the children's volume; the
        directory's own entry delete stays on the entry's volume."""
        fs = make_sharded_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32), shards=4)
        vfs, sm, nb = fs.vfs, fs.shard_map, fs.backend
        d = next(
            f"/e{i}" for i in range(100)
            if sm.owner_of_entry(f"/e{i}") != sm.owner_of_children(f"/e{i}")
        )
        vfs.mkdir(d)
        for i in range(3):
            vfs.create(f"{d}/f{i}")
            vfs.write(f"{d}/f{i}", 0, b"x" * 4096)
            vfs.unlink(f"{d}/f{i}")
        trees = fs.env.trees

        def range_deletes():
            return [tree.stats.range_deletes for tree in trees]

        before = range_deletes()
        vfs.rmdir(d)
        grew = [i for i, (b, a) in enumerate(zip(before, range_deletes())) if a != b]
        assert grew == sorted(nb.pairs[sm.owner_of_children(d)])
        assert not vfs.exists(d)

    def test_sharding_requires_sfl(self):
        with pytest.raises(ValueError, match="SFL"):
            make_sharded_betrfs("BetrFS v0.4", shards=2)

    def test_shard_count_is_bounded_by_what_one_log_can_name(self):
        """The WAL names a tree in one byte: 128 volumes' tree pairs."""
        assert MAX_VOLUMES == 128
        with pytest.raises(ValueError, match="at most 128"):
            make_sharded_betrfs("BetrFS v0.6", shards=MAX_VOLUMES + 1)


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
        stack, _ = stack_for("xshard_rename")
        stack.apply(Op("insert", META, b"dir00/a", b"v"))
        stack.apply(Op("sync"))
        stack.apply(Op("xrename", META, b"dir00/a", end=b"dir01/a"))
        stack.apply(Op("sync"))
        get = stack.reboot(stack.device.crash_image())
        assert get(META, b"dir00/a") is None
        assert get(META, b"dir01/a") is not None
