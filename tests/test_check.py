"""Tests for the repro.check subsystem: lint, sanitizers, and fsck."""

import os

import pytest

from repro.check import lint
from repro.check.errors import (
    AllocInvariantError,
    CacheInvariantError,
    FsckError,
    TreeInvariantError,
)
from repro.check.fsck import fsck_device, load_image, save_image
from repro.core.checkpoint import EXTENT_ALIGN, SLOT_HEAD, Superblock
from repro.core.env import DATA, META
from repro.core.keys import intersect
from repro.core.messages import Insert, RangeDelete
from repro.core.serialize import COMPRESSED_MAGIC, ChecksumError
from repro.harness.mt import device_sha256
from tests.conftest import (
    LAYOUT,
    drop_node_cache,
    make_env,
    newest_slot,
    reopen,
    small_cfg,
    tear_newest_slot,
)

MIB = 1 << 20
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


# ======================================================================
# Lint
# ======================================================================
class TestLint:
    def test_repo_is_clean(self):
        assert lint.lint_repo() == []

    def test_prof_wallclock_is_the_only_allowlisted_finding(self):
        """Satellite: repro.obs.prof's single perf_counter_ns read is
        the ONE sanctioned wall-clock use in the whole package — the
        harness banner, its one consumer, derives from it."""
        found = lint.lint_repo(use_allowlist=False)
        assert len(found) == 1, [v.render() for v in found]
        [violation] = found
        assert violation.rule == "wall-clock"
        assert violation.path.replace(os.sep, "/").endswith("obs/prof.py")
        assert lint.DEFAULT_ALLOWLIST == {("obs/prof.py", "wall-clock")}

    @pytest.mark.parametrize(
        "fixture,rule",
        [
            ("bad_wall_clock.py", "wall-clock"),
            ("bad_perf_counter.py", "wall-clock"),
            ("bad_unseeded_random.py", "unseeded-random"),
            ("bad_dict_order.py", "dict-order"),
            ("bad_str_key.py", "str-key"),
            ("bad_mutable_default.py", "mutable-default"),
            ("bad_raw_device_io.py", "raw-device-io"),
            ("bad_bare_assert.py", "bare-assert"),
            ("bad_message_ladder.py", "message-ladder"),
        ],
    )
    def test_each_rule_fires_on_its_fixture(self, fixture, rule):
        found = lint.lint_file(_fixture(fixture))
        assert found, f"{fixture} produced no violations"
        assert {v.rule for v in found} == {rule}

    def test_str_key_checks_get_on_env_and_tree_only(self, tmp_path):
        """``env.get`` / ``tree.get`` take bytes keys; every other
        ``get`` is a mapping's, whose str keys are fine."""
        path = tmp_path / "northbound.py"
        path.write_text(
            "def lookup(self, meta, tree, fields):\n"
            '    self.env.get(meta, "/")\n'
            '    tree.get("k")\n'
            '    return fields.get("_layer", "")\n'
        )
        found = lint.lint_file(str(path))
        assert [(v.rule, v.line) for v in found] == [("str-key", 2), ("str-key", 3)]

    def test_clean_fixture_has_no_false_positives(self):
        assert lint.lint_file(_fixture("clean_module.py")) == []

    def test_cli_exits_nonzero_on_fixture(self, capsys):
        rc = lint.main([_fixture("bad_wall_clock.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[wall-clock]" in out


# ======================================================================
# Runtime sanitizers
# ======================================================================
def _run_mixed_workload(sanitize: bool):
    """Puts, deletes, range-deletes, queries, checkpoint, recovery."""
    env, device = make_env(small_cfg(sanitize=sanitize))
    for i in range(700):
        env.insert(META, b"k%04d" % i, b"v%04d" % i)
        if i % 5 == 0:
            env.insert(DATA, b"d%04d" % i, b"x" * 300)
    for i in range(0, 700, 11):
        env.delete(META, b"k%04d" % i)
    env.range_delete(META, b"k0100", b"k0220")
    env.checkpoint()
    for i in range(300, 700, 7):
        env.get(META, b"k%04d" % i)
    env.range_delete(DATA, b"d0000", b"d0400")
    env.sync()
    return env, device


class TestSanitizers:
    def test_mixed_workload_runs_clean_with_sanitizers(self):
        env, _device = _run_mixed_workload(sanitize=True)
        assert env.san is not None
        env.san.check_all()

    def test_sanitizers_are_pure_observers(self):
        """Satellite: with and without sanitizers, the same workload
        externalizes bit-identical device state in identical simulated
        time."""
        env_off, dev_off = _run_mixed_workload(sanitize=False)
        env_on, dev_on = _run_mixed_workload(sanitize=True)
        assert device_sha256(dev_off) == device_sha256(dev_on)
        assert env_off.clock.now == env_on.clock.now
        stats_off, stats_on = dev_off.stats, dev_on.stats
        assert (stats_off.reads, stats_off.writes, stats_off.flushes) == (
            stats_on.reads,
            stats_on.writes,
            stats_on.flushes,
        )

    def test_recovery_runs_under_sanitizers(self):
        env, device = _run_mixed_workload(sanitize=True)
        env2 = reopen(device, small_cfg(sanitize=True))
        assert env2.san is not None
        assert env2.get(META, b"k0301") == b"v0301"
        env2.san.check_all()

    def test_tree_sanitizer_rejects_disordered_pivots(self):
        env, _device = make_env(small_cfg(sanitize=True))
        for i in range(500):
            env.insert(META, b"k%04d" % i, b"v" * 40)
        root = env.meta._load_node(env.meta.root_id)
        assert root.pivots, "workload too small to split the root"
        root.pivots[0] = b"\xff" * 8  # now > every later pivot
        with pytest.raises(TreeInvariantError):
            env.san.check_node(env.meta, root)

    def test_cache_sanitizer_rejects_unbalanced_unpin(self):
        env, _device = make_env(small_cfg(sanitize=True))
        env.insert(META, b"k", b"v")
        with pytest.raises(CacheInvariantError):
            env.cache.unpin(999999)

    @pytest.mark.parametrize("sanitize", [True, False])
    def test_cache_sanitizer_rejects_a_leaf_grown_behind_the_ledger(self, sanitize):
        """A node changed without being handed out (perfbench's kernels
        do it to cached leaves) leaves the byte ledger stale: a typed
        error under the sanitizer, and neither a crash nor an assert
        without it."""
        env, _device = make_env(small_cfg(sanitize=sanitize))
        for i in range(300):
            env.insert(DATA, b"d%04d" % i, b"x" * 200)
        leaf = next(
            n
            for n, _owner in env.cache._nodes.values()
            if n.is_leaf and n.node_id != env.meta.root_id
        )
        leaf.apply(Insert(b"zzzz", b"y" * 500, 1 << 40), env.config.basement_size)
        if sanitize:
            with pytest.raises(CacheInvariantError, match="ledger"):
                env.get(META, b"nothing")
        else:
            env.get(META, b"nothing")
            env.cache.clear()
            assert env.cache._used == 0

    def test_cache_sanitizer_recounts_an_internal_nodes_pivot_bytes(self):
        """``InternalNode.nbytes()`` is O(1) from a kept total; pivots
        changed behind it are a typed error at the next fit."""
        env, _device = make_env(small_cfg(sanitize=True))
        for i in range(500):
            env.insert(META, b"k%04d" % i, b"v" * 40)
        root = env.meta._load_node(env.meta.root_id)
        assert root.pivots, "workload too small to split the root"
        env.san.check_cache()
        root.pivots[0] += b"-longer"
        with pytest.raises(CacheInvariantError, match="pivot bytes"):
            env.get(META, b"nothing")

    def _root_with_a_buffer(self):
        env, _device = make_env(small_cfg(sanitize=True))
        for i in range(500):
            env.insert(META, b"k%04d" % i, b"v" * 40)
        root = env.meta._load_node(env.meta.root_id)
        assert root.height and len(root.buffer) > 2
        env.san.check_all()
        return env, root

    def test_tree_sanitizer_recounts_a_messages_kept_size(self):
        """``check_internal`` measures each message from its fields:
        summing the kept sizes would compare a cache with itself."""
        env, root = self._root_with_a_buffer()
        root.buffer[1].size += 8
        root.buffer_bytes += 8  # even a total that agrees with the drift
        with pytest.raises(TreeInvariantError, match="message size drifted"):
            env.san.check_node(env.meta, root)

    @pytest.mark.parametrize("stale", ["moved", "reordered", "total"])
    def test_tree_sanitizer_rebuilds_the_child_partitions(self, stale):
        """A flush takes its batch from the per-child partitions and
        picks the child by the kept totals: both are held to what
        routing the buffer from nothing gives."""
        env, root = self._root_with_a_buffer()
        part = max(root.child_buffers, key=len)
        assert len(root.children) > 1 and len(part) > 1
        if stale == "moved":  # a message filed under the wrong child
            root.child_buffers[root.child_buffers.index(part) - 1].append(part.pop())
        elif stale == "reordered":
            part.reverse()
        else:
            root.child_bytes[0] += 8
        match = "child byte totals" if stale == "total" else "child partitions"
        with pytest.raises(TreeInvariantError, match=match):
            env.san.check_node(env.meta, root)

    @pytest.mark.parametrize("stale", ["gone", "extra", "order", "range", "sorted"])
    def test_tree_sanitizer_rebuilds_the_buffer_index(self, stale):
        """The in-place unindexing of a flush is held to what indexing
        the buffer from nothing gives: contents and per-key order."""
        env, root = self._root_with_a_buffer()
        key = root.buffer[0].key
        if stale == "gone":  # an index entry for a message that left
            root.buffer = root.buffer[1:]
            root.buffer_bytes -= root.point_index[key][0].size
        elif stale == "extra":  # the right count, the wrong message
            root.point_index[key] = [Insert(key, b"", 0)] + root.point_index[key][1:]
        elif stale == "order":
            twin = Insert(key, b"", root.buffer[0].msn)
            root.enqueue(twin)
            root.point_index[key].reverse()
        elif stale == "range":
            root.range_msgs.append(RangeDelete(b"a", b"b", 1))
        else:
            root._sorted_keys = sorted(root.point_index)[1:]
        with pytest.raises(TreeInvariantError, match="buffer index out of sync"):
            env.san.check_node(env.meta, root)

    def test_cache_sanitizer_recounts_a_leafs_kept_size(self):
        """``LeafNode.nbytes()`` is O(1) from a kept total; a basement
        changed behind it is a typed error at the next fit."""
        env, _device = make_env(small_cfg(sanitize=True))
        for i in range(300):
            env.insert(DATA, b"d%04d" % i, b"x" * 200)
        leaf = next(n for n, _owner in env.cache._nodes.values() if n.is_leaf)
        env.san.check_cache()
        leaf.basements[0].set(b"behind-the-leaf", b"y" * 64, msn=1 << 40)
        with pytest.raises(CacheInvariantError, match="pair bytes"):
            env.get(META, b"nothing")

    def test_cache_sanitizer_rejects_a_node_on_the_wrong_lru(self):
        env, _device = make_env(small_cfg(sanitize=True))
        for i in range(300):
            env.insert(DATA, b"d%04d" % i, b"x" * 200)
        env.san.check_cache()
        node_id = next(iter(env.cache._leaves))
        del env.cache._leaves[node_id]
        env.cache._internals[node_id] = None
        with pytest.raises(CacheInvariantError, match="LRU"):
            env.san.check_cache()

    def test_mount_puts_its_page_cache_under_the_sanitizer(self):
        from repro.betrfs.filesystem import MountOptions, make_betrfs

        fs = make_betrfs(
            "BetrFS v0.6", MountOptions(config_tweaks={"sanitize": True})
        )
        assert fs.vfs.pages.san is fs.env.san
        fs.vfs.create("/f")
        fs.vfs.write("/f", 0, b"x" * 9000)
        fs.env.san.check_all()
        fs.vfs.pages.dirty_bytes -= 4096
        with pytest.raises(CacheInvariantError, match="dirty_bytes"):
            fs.vfs.read("/f", 0, 10)

    def test_alloc_sanitizer_rejects_double_free(self):
        env, _device = make_env(small_cfg(sanitize=True))
        buf = env.alloc.alloc(4096)
        env.alloc.free(buf)
        with pytest.raises(AllocInvariantError):
            env.alloc.free(buf)


class TestWorkloadBitIdentity:
    """Acceptance: sanitizer-enabled benchmark runs are bit-identical."""

    @pytest.mark.parametrize("workload", ["tokubench", "mailserver"])
    def test_smoke_workload_identical_with_sanitizers(self, workload):
        from repro.betrfs.filesystem import MountOptions, make_betrfs
        from repro.workloads.mailserver import mailserver
        from repro.workloads.scale import SMOKE_SCALE
        from repro.workloads.tokubench import tokubench

        def run(sanitize: bool):
            opts = MountOptions(config_tweaks={"sanitize": sanitize})
            fs = make_betrfs("BetrFS v0.6", opts)
            assert (fs.env.san is not None) == sanitize
            if workload == "tokubench":
                tokubench(fs, SMOKE_SCALE)
            else:
                mailserver(fs, SMOKE_SCALE)
            fs.sync()
            if sanitize:
                fs.env.san.check_all()
            return device_sha256(fs.device), fs.clock.now

        state_off, time_off = run(False)
        state_on, time_on = run(True)
        assert state_off == state_on
        assert time_off == time_on


# ======================================================================
# Offline fsck
# ======================================================================
class TestFsck:
    def _built_env(self):
        env, device = make_env()
        for i in range(900):
            env.insert(META, b"key%04d" % i, b"value%04d" % i)
            if i % 3 == 0:
                env.insert(DATA, b"data%04d" % i, b"y" * 256)
        env.checkpoint()
        for i in range(40):
            env.insert(META, b"post%02d" % i, b"tail")
        env.sync()
        return env, device

    def test_clean_image_fscks_clean(self):
        _env, device = self._built_env()
        report = fsck_device(
            device.crash_image(), log_size=8 * MIB, meta_size=64 * MIB
        )
        assert report.ok, report.render()
        assert report.trees_checked == 2
        assert report.nodes_checked > 0
        assert report.wal_entries == 40

    def test_flipped_byte_in_node_page_is_detected(self):
        """Acceptance: a deliberately corrupted node page fails fsck."""
        env, device = self._built_env()
        image = device.crash_image()
        off, ln = env.meta.blockman.lookup(env.meta.root_id)
        raw = bytearray(image.store.read(LAYOUT.meta_base + off, ln))
        raw[ln // 3] ^= 0x01  # single flipped bit
        image.store.write(LAYOUT.meta_base + off, bytes(raw))
        report = fsck_device(image, log_size=8 * MIB, meta_size=64 * MIB)
        assert not report.ok
        assert any("unreadable" in e for e in report.errors)
        with pytest.raises(FsckError):
            report.raise_if_errors()

    def test_corrupt_compressed_node_is_a_checksum_error(self):
        """A flipped byte in a compressed node's zlib stream is a typed
        corruption error on a cold read, and fsck names the node."""
        env, device = make_env(small_cfg(compression=True))
        for i in range(300):
            env.insert(META, b"key%04d" % i, b"value%04d" % i)
        drop_node_cache(env)
        root = env.meta.root_id
        off, ln = env.meta.blockman.lookup(root)
        raw = bytearray(device.store.read(LAYOUT.meta_base + off, ln))
        assert raw[:4] == COMPRESSED_MAGIC
        raw[ln // 2] ^= 0x01
        device.store.write(LAYOUT.meta_base + off, bytes(raw))
        with pytest.raises(ChecksumError):
            env.get(META, b"key0001")
        report = fsck_device(device.crash_image(), log_size=8 * MIB, meta_size=64 * MIB)
        assert any(f"meta.db: node {root} unreadable" in e for e in report.errors)

    def test_pre_checkpoint_image_is_log_only(self):
        env, device = make_env()
        env.insert(META, b"k", b"v")
        env.sync()
        report = fsck_device(
            device.crash_image(), log_size=8 * MIB, meta_size=64 * MIB
        )
        assert report.ok, report.render()
        assert report.superblock_generation is None
        assert any("log-only" in w for w in report.warnings)
        assert report.wal_entries >= 1

    def test_pre_checkpoint_flip_past_the_first_block_is_an_error(self):
        """No slot decodes, so a flipped byte anywhere in the region is
        data where none was written, not a never-written slot."""
        env, device = make_env()
        env.insert(META, b"k", b"v")
        env.sync()
        image = device.crash_image()
        off = LAYOUT.file_base("superblock") + Superblock.SLOT_SIZE + 2 * SLOT_HEAD
        image.store.write(off, b"\x01")
        report = fsck_device(image, log_size=8 * MIB, meta_size=64 * MIB)
        assert any("neither slot decodes" in e for e in report.errors)

    def test_image_roundtrip_and_container_crc(self, tmp_path):
        _env, device = self._built_env()
        path = str(tmp_path / "crash.img")
        save_image(device.crash_image(), path, log_size=8 * MIB, meta_size=64 * MIB)
        image = load_image(path)
        report = image.fsck()
        assert report.ok, report.render()
        # A corrupted container (not just a corrupted node) is refused.
        with open(path, "r+b") as fh:
            fh.seek(64)
            fh.write(b"\xff")
        with pytest.raises(FsckError):
            load_image(path)

    def _two_checkpoint_env(self):
        """Both superblock slots populated; returns (env, device)."""
        env, device = make_env()
        for i in range(200):
            env.insert(META, b"gen1-%04d" % i, b"a" * 64)
        env.checkpoint()
        for i in range(200):
            env.insert(META, b"gen2-%04d" % i, b"b" * 64)
        env.checkpoint()
        return env, device

    def test_flip_in_newest_slot_is_a_stale_fallback_error(self):
        """Satellite: media corruption of a *completed* newest slot must
        be reported — the older survivor is valid but stale."""
        _env, device = self._two_checkpoint_env()
        image = device.crash_image()
        base, newest = newest_slot(image.store)
        raw = bytearray(image.store.read(base, 4096))
        raw[20] ^= 0x01  # flip inside the payload; stamp stays intact
        image.store.write(base, bytes(raw))
        report = fsck_device(image, log_size=8 * MIB, meta_size=64 * MIB)
        assert not report.ok
        assert any("valid-but-stale" in e for e in report.errors)
        assert any(str(newest.generation) in e for e in report.errors)
        # fsck fell back to the older checkpoint and says so.
        assert report.superblock_generation == newest.generation - 1

    def test_torn_newest_slot_is_a_legal_fallback_warning(self):
        """A sector-prefix tear leaves no intact stamp: fsck warns about
        the torn write but does not error (legal crash artifact)."""
        _env, device = self._two_checkpoint_env()
        image = device.crash_image()
        tear_newest_slot(image.store)
        report = fsck_device(image, log_size=8 * MIB, meta_size=64 * MIB)
        assert report.ok, report.render()
        assert any("torn checkpoint write" in w for w in report.warnings)

    def test_harness_cli_fsck_on_saved_image(self, tmp_path):
        from repro.harness.__main__ import main as harness_main

        _env, device = self._built_env()
        path = str(tmp_path / "crash.img")
        save_image(device.crash_image(), path, log_size=8 * MIB, meta_size=64 * MIB)
        assert harness_main(["fsck", path, "--quiet"]) == 0


# ======================================================================
# One corruption table, both checkers
# ======================================================================
def _grown(sanitize: bool):
    """A height-2 META tree, checkpointed; returns ``(env, device)``."""
    env, device = make_env(small_cfg(sanitize=sanitize))
    for i in range(500):
        env.insert(META, b"k%06d" % i, b"v" * 40)
    env.checkpoint()
    return env, device


def _routed(tree, height: int):
    """``(parent, idx, node, lo, hi)``: a node of ``height`` below the
    root, reached through last children (so its routing range ``[lo,
    hi)`` has a lower bound to fall outside of)."""
    node, lo, hi, parent = tree._load_node(tree.root_id), None, None, None
    while node.height > height or parent is None:
        idx = len(node.children) - 1
        lo, hi = intersect(*node.child_range(idx), lo, hi)
        parent, node = node, tree._load_node(node.children[idx])
    assert lo is not None
    return parent, idx, node, lo, hi


def _reverse_pivots(node):
    assert len(node.pivots) >= 2
    node.pivots.reverse()


def _duplicate_child(node):
    node.children[1] = node.children[0]


def _pivot_below_range(node):
    node.pivots[0] = b"\x00" * len(node.pivots[0])


def _buffer_point_below_range(node):
    node.enqueue(Insert(b"\x00outside", b"v", 1))


def _buffer_range_below_range(node):
    node.enqueue(RangeDelete(b"\x00a", b"\x00b", 1))


def _swap_basement_keys(leaf):
    keys = leaf.basements[0].keys
    keys[0], keys[1] = keys[1], keys[0]


def _overlap_basements(leaf):
    leaf.basements[1].keys[0] = leaf.basements[0].keys[-1]


def _leaf_key_below_range(leaf):
    keys = leaf.basements[0].keys
    keys[0] = b"\x00" * len(keys[0])


def _in_node(height, damage):
    """Damage a node of ``height`` below the root; the sanitizer sees it
    through the flush hook, which knows the range its parent routes."""

    def apply(env, _device):
        parent, idx, node, _lo, _hi = _routed(env.meta, height)
        damage(node)
        node.dirty = True
        return node.node_id, lambda: env.san.on_flush(env.meta, parent, idx, node)

    return apply


def _alias_extents(env, _device):
    table = env.meta.blockman.table
    first, second = sorted(table)[:2]
    table[first] = table[second]
    return first, lambda: env.san.check_blockman(env.meta)


def _extent_past_file_size(env, _device):
    blockman = env.meta.blockman
    node_id = max(blockman.table)
    blockman.table[node_id] = (blockman.file_size - EXTENT_ALIGN, 2 * EXTENT_ALIGN)
    return node_id, lambda: env.san.check_blockman(env.meta)


def _live_extent(blockman):
    """``(node id, aligned extent)`` of the newest live node."""
    node_id = max(blockman.table)
    off, ln = blockman.table[node_id]
    return node_id, (off, -(-ln // EXTENT_ALIGN) * EXTENT_ALIGN)


def _free_a_live_extent(env, _device):
    """Defer-free a live node's extent: it is freed a second time when
    the node moves.  An image shows it once a commit has put it on the
    free list."""
    node_id, extent = _live_extent(env.meta.blockman)
    env.meta.blockman.deferred_free.append(extent)
    return node_id, lambda: env.san.check_blockman(env.meta)


def _queue_a_live_extent_for_trim(env, _device):
    """Queue a live node's extent for TRIM.  The queue is not in the
    image; the next commit's TRIM destroys the node, which fsck finds."""
    node_id, extent = _live_extent(env.meta.blockman)
    env.meta.blockman._trim_pending.append(extent)
    return node_id, lambda: env.san.check_blockman(env.meta)


def _unmap_a_stored_page(env, device):
    """TRIM one page the extent store still holds: the map loses it and
    valid-page conservation still holds."""
    page = device.ftl.geom.page_size
    lpn = next(
        lpn
        for off, segs in device.store.snapshot()
        for lpn in range(-(-off // page), (off + sum(map(len, segs))) // page)
    )
    unmapped = device.ftl.trim(lpn * page, page)
    assert unmapped == 1
    return None, lambda: env.san.check_device(device)


#: defect -> (the sanitizer's typed error, damage(env, device) -> (the
#: node fsck must name or None for the FTL, the sanitizer's check)).
#: The buffered point row is an ``Insert(b"\x00outside", ...)`` in a
#: height-1 node that owns ``[b"k000240", None)``.
DEFECTS = {
    "disordered pivots": (TreeInvariantError, _in_node(1, _reverse_pivots)),
    "duplicate child": (TreeInvariantError, _in_node(1, _duplicate_child)),
    "pivot outside its range": (TreeInvariantError, _in_node(1, _pivot_below_range)),
    "buffered point message outside its range": (
        TreeInvariantError,
        _in_node(1, _buffer_point_below_range),
    ),
    "buffered range message outside its range": (
        TreeInvariantError,
        _in_node(1, _buffer_range_below_range),
    ),
    "basement keys out of order": (TreeInvariantError, _in_node(0, _swap_basement_keys)),
    "overlapping basements": (TreeInvariantError, _in_node(0, _overlap_basements)),
    "leaf key outside its range": (TreeInvariantError, _in_node(0, _leaf_key_below_range)),
    "overlapping table extents": (AllocInvariantError, _alias_extents),
    "an extent past file_size": (AllocInvariantError, _extent_past_file_size),
    "a double free into deferred_free": (AllocInvariantError, _free_a_live_extent),
    "a live node's extent queued for TRIM": (
        AllocInvariantError,
        _queue_a_live_extent_for_trim,
    ),
    "a stored page missing from the FTL map": (AllocInvariantError, _unmap_a_stored_page),
}


#: Rows whose extent list is not in the image: fsck sees what the next
#: commit does with it, not the same sentence.
SEEN_BY_EFFECT = {"a live node's extent queued for TRIM"}


def _fsck_after(apply):
    """The defect written through two sanitizer-off checkpoints (every
    CRC valid; the second superblock holds what the first commit
    freed), then fsck'd: ``(report, the node it must name)``."""
    env, device = _grown(sanitize=False)
    named, _check = apply(env, device)
    env.checkpoint()
    env.checkpoint()
    image = device.crash_image()
    return fsck_device(image, LAYOUT.log_size, LAYOUT.meta_size), named


class TestOneStatementTwoCheckers:
    """Each structural invariant is stated once
    (:mod:`repro.check.invariants`): the sanitizer raises the first
    violation on a live structure, fsck reports every one in a crash
    image, naming the tree and the node."""

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_sanitizer_raises_what_fsck_reports(self, defect):
        error, apply = DEFECTS[defect]
        env, device = _grown(sanitize=True)
        _named, check = apply(env, device)
        with pytest.raises(error) as raised:
            check()
        report, named = _fsck_after(apply)
        if defect in SEEN_BY_EFFECT:
            assert f"meta.db: node {named} unreadable" in "\n".join(report.errors)
        else:
            assert str(raised.value) in report.errors, (str(raised.value), report.errors)

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_fsck_names_the_tree_and_node(self, defect):
        report, named = _fsck_after(DEFECTS[defect][1])
        if named is None:
            assert any(e.startswith("ftl: ") for e in report.errors), report.errors
        else:
            assert any(
                e.startswith("meta.db: ") and f"node {named} " in e
                for e in report.errors
            ), report.errors
