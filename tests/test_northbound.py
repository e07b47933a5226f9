"""Tests for the BetrFS northbound layer (schema + optimizations)."""

import random

import pytest

from repro.betrfs import make_betrfs
from repro.betrfs.filesystem import MountOptions
from repro.core.env import DATA, META
from repro.core.keys import data_key, meta_key
from repro.core.messages import PageFrame, value_bytes
from repro.harness.mt import device_sha256
from repro.shard import make_sharded_betrfs
from repro.vfs.inode import FileKind, Stat

OPTS = MountOptions(scale=1 / 32)
PAGE = 4096


def mount(version="BetrFS v0.6"):
    return make_betrfs(version, OPTS)


class TestSchema:
    def test_meta_index_holds_packed_stats(self):
        fs = mount("BetrFS v0.4")  # no conditional logging: direct insert
        fs.vfs.mkdir("/d")
        raw = fs.env.get(META, meta_key("/d"))
        st = Stat.unpack(value_bytes(raw))
        assert st.kind is FileKind.DIR

    def test_data_index_holds_blocks_by_path(self):
        fs = mount("BetrFS v0.4")
        fs.vfs.create("/f")
        fs.vfs.write("/f", 0, b"A" * 4096 + b"B" * 4096)
        fs.vfs.fsync("/f")
        b0 = fs.env.get(DATA, data_key("/f", 0))
        b1 = fs.env.get(DATA, data_key("/f", 1))
        assert value_bytes(b0)[:4] == b"AAAA"
        assert value_bytes(b1)[:4] == b"BBBB"

    def test_unlink_issues_range_delete(self):
        fs = mount("BetrFS v0.4")
        fs.vfs.create("/f")
        fs.vfs.write("/f", 0, b"x" * 8192)
        fs.vfs.fsync("/f")
        before = fs.env.data.stats.range_deletes
        fs.vfs.unlink("/f")
        assert fs.env.data.stats.range_deletes > before
        assert fs.env.get(DATA, data_key("/f", 0)) is None


class TestRedundantDeleteElision:
    def test_v04_issues_redundant_delete(self):
        fs = mount("BetrFS v0.4")
        fs.vfs.create("/f")
        fs.vfs.write("/f", 0, b"x" * 4096)
        fs.vfs.fsync("/f")
        before = fs.env.data.stats.range_deletes
        fs.vfs.unlink("/f")
        # unlink + evict_inode both fire a range delete in v0.4.
        assert fs.env.data.stats.range_deletes == before + 2

    def test_rg_elides_redundant_delete(self):
        fs = mount("+RG")
        fs.vfs.create("/f")
        fs.vfs.write("/f", 0, b"x" * 4096)
        fs.vfs.fsync("/f")
        before = fs.env.data.stats.range_deletes
        fs.vfs.unlink("/f")
        assert fs.env.data.stats.range_deletes == before + 1


class TestRmdirCoalescing:
    def test_rg_rmdir_issues_directory_range_delete(self):
        fs = mount("+RG")
        fs.vfs.mkdir("/d")
        before = fs.env.meta.stats.range_deletes
        fs.vfs.rmdir("/d")
        assert fs.env.meta.stats.range_deletes > before

    def test_v04_rmdir_queries_for_emptiness(self):
        fs = mount("BetrFS v0.4")
        fs.vfs.mkdir("/d")
        before = fs.env.meta.stats.range_queries
        fs.vfs.rmdir("/d")
        assert fs.env.meta.stats.range_queries > before

    def test_v06_rmdir_uses_cached_nlink(self):
        fs = mount("BetrFS v0.6")
        fs.vfs.mkdir("/d")
        fs.vfs.create("/d/f")
        fs.vfs.unlink("/d/f")
        before = fs.env.meta.stats.range_queries
        fs.vfs.rmdir("/d")  # children_count is tracked: no query
        assert fs.env.meta.stats.range_queries == before


class TestReaddir:
    def test_skips_subtrees(self):
        fs = mount("BetrFS v0.4")
        v = fs.vfs
        v.mkdir("/top")
        v.mkdir("/top/sub")
        for i in range(50):
            v.create(f"/top/sub/f{i:02d}")
        v.create("/top/zfile")
        names = v.readdir("/top")
        assert names == ["sub", "zfile"]

    def test_dc_populates_inode_cache(self):
        fs = mount("+DC")
        v = fs.vfs
        v.mkdir("/d")
        for i in range(10):
            v.create(f"/d/f{i}")
        v.sync()
        fs.drop_caches()
        v.readdir("/d")
        before = fs.env.meta.stats.queries
        for i in range(10):
            v.stat(f"/d/f{i}")  # all served from the dcache
        assert fs.env.meta.stats.queries == before

    def test_without_dc_lookups_hit_the_tree(self):
        fs = mount("+PGSH")  # one step before +DC
        v = fs.vfs
        v.mkdir("/d")
        for i in range(10):
            v.create(f"/d/f{i}")
        v.sync()
        fs.drop_caches()
        v.readdir("/d")
        before = fs.env.meta.stats.queries
        for i in range(10):
            v.stat(f"/d/f{i}")
        assert fs.env.meta.stats.queries >= before + 10


class TestRename:
    def test_file_rename_moves_blocks(self):
        fs = mount()
        v = fs.vfs
        v.create("/a")
        v.write("/a", 0, b"R" * 10000)
        v.fsync("/a")
        v.rename("/a", "/b")
        v.sync()
        fs.drop_caches()
        assert v.read("/b", 0, 10000) == b"R" * 10000
        assert fs.env.get(DATA, data_key("/a", 0)) is None

    def test_dir_rename_rewrites_prefixes(self):
        fs = mount()
        v = fs.vfs
        v.mkdir("/olddir")
        v.create("/olddir/f")
        v.write("/olddir/f", 0, b"zz" * 3000)
        v.rename("/olddir", "/newdir")
        v.sync()
        fs.drop_caches()
        assert v.read("/newdir/f", 0, 6000) == b"zz" * 3000
        assert not v.exists("/olddir/f")
        assert not v.exists("/olddir")


class TestTreeReadahead:
    def test_cold_read_queries_only_the_blocks_the_file_has(self, monkeypatch):
        """A cold read of a 5-block file is one range query over the
        window read-ahead cut at EOF, and no point query: five blocks
        come back, none past EOF is asked for."""
        fs = mount("BetrFS v0.6")
        v = fs.vfs
        v.create("/small")
        v.write("/small", 0, b"s" * (20 << 10))
        v.sync()
        fs.drop_caches()
        stats = fs.env.data.stats
        before = (stats.queries, stats.range_queries)
        scans = []
        real = fs.env.range_query
        monkeypatch.setattr(
            fs.env, "range_query", lambda *a, **kw: scans.append(real(*a, **kw)) or scans[-1]
        )
        assert v.read("/small", 0, 20 << 10) == b"s" * (20 << 10)
        assert (stats.queries, stats.range_queries) == (before[0], before[1] + 1)
        assert [[k for k, _v in rows] for rows in scans] == [
            [data_key("/small", i) for i in range(5)]
        ]

    def test_sfl_variants_prefetch_on_sequential_reads(self):
        fs = mount("BetrFS v0.6")
        v = fs.vfs
        v.create("/big")
        v.write("/big", 0, b"D" * (2 << 20))
        v.sync()
        fs.drop_caches()
        v.read("/big", 0, 2 << 20)
        assert fs.env.data.stats.readahead_issued > 0
        assert fs.env.data.stats.readahead_hits > 0

    def test_v04_never_prefetches_in_tree(self):
        fs = mount("BetrFS v0.4")
        v = fs.vfs
        v.create("/big")
        v.write("/big", 0, b"D" * (2 << 20))
        v.sync()
        fs.drop_caches()
        v.read("/big", 0, 2 << 20)
        assert fs.env.data.stats.readahead_issued == 0


def _mount_by_name(name):
    """v0.6; +MLC (no page sharing, eager apply-on-query); v0.6 on four
    hash-partitioned volumes."""
    if name == "shards4":
        return make_sharded_betrfs("BetrFS v0.6", OPTS, shards=4)
    return mount(name)


class TestWindowIsOneRangeQuery:
    """A read of more than one page — or a hinted one — is one range
    query that answers what as many point queries would."""

    @pytest.mark.parametrize("name", ["BetrFS v0.6", "+MLC", "shards4"])
    def test_range_query_frames_equal_point_query_frames(self, name):
        """Seeded differential: two mounts take the same writes (full
        pages, blind patches — into holes, leaving short blocks — and
        range deletes, buffered above cold or partially loaded leaves);
        every request ``read_pages(path, idx, count, hint)`` of one
        returns the bytes ``count`` one-page point queries of the other
        do.  After ``drop_caches`` every frame is back at ``refs == 0``."""
        scan, point = _mount_by_name(name), _mount_by_name(name)
        rng = random.Random(24)
        files = [f"/d{i % 2}/f{i}" for i in range(4)]
        frames, seen = [], set()

        def released(out):
            for frame in out:
                frames.append(frame)
                frame.put()
            return [frame.data for frame in out]

        def on_both(op, *args):
            for fs in (scan, point):
                if op == "write_page":
                    path, idx, data = args
                    frame = PageFrame(data)
                    fs.backend.write_page(path, idx, frame, PAGE)
                    released([frame])
                elif op == "write_patch":
                    fs.backend.write_patch(*args)
                elif op == "range_delete":
                    path, lo, hi = args
                    fs.env.range_delete(DATA, data_key(path, lo), data_key(path, hi))
                elif op == "warm":
                    released(fs.backend.read_pages(*args, 1, False))
                else:
                    fs.drop_caches()

        for path in files:
            for idx in range(rng.randrange(30, 60)):
                if rng.random() < 0.85:  # the rest are holes
                    on_both("write_page", path, idx, rng.randbytes(PAGE))
        on_both("drop_caches")
        for _round in range(6):
            for _ in range(rng.randrange(10, 40)):
                path, idx, roll = rng.choice(files), rng.randrange(70), rng.random()
                if roll < 0.35:
                    on_both("write_page", path, idx, rng.randbytes(PAGE))
                elif roll < 0.85:
                    offset = rng.randrange(PAGE - 8)
                    on_both("write_patch", path, idx, offset, rng.randbytes(rng.randrange(1, 9)))
                else:
                    lo = rng.randrange(70)
                    on_both("range_delete", path, lo, lo + rng.randrange(1, 12))
            if rng.random() < 0.7:
                on_both("drop_caches")
            for _ in range(rng.randrange(4)):
                on_both("warm", rng.choice(files), rng.randrange(70))
            for _ in range(12):
                path, idx = rng.choice(files), rng.randrange(70)
                count, hint = rng.choice([1, 2, 3, 5, 16, 32]), rng.random() < 0.5
                got = released(scan.backend.read_pages(path, idx, count, hint))
                want = [
                    released(point.backend.read_pages(path, idx + i, 1, False))[0]
                    for i in range(count)
                ]
                assert got == want, (path, idx, count, hint)
                seen.update(
                    "short" if len(d) < PAGE else "hole" if d == bytes(PAGE) else "page"
                    for d in got
                )
        for fs in (scan, point):
            fs.drop_caches()
        assert [f for f in frames if f.refs != 0] == []
        assert seen == {"short", "hole", "page"}
        envs = getattr(scan.env, "envs", [scan.env])
        assert sum(env.data.stats.range_queries for env in envs) > 30
        assert sum(env.data.stats.partial_leaf_loads for env in envs)


class TestPageSharingReachesTheDevice:
    def test_page_writes_after_a_checkpoint_leave_the_device_image_alone(self):
        """A checkpoint hands the device each cached page's own bytes; a
        CoW fault, a blind patch and a page-cache write afterwards
        rebind ``PageFrame.data`` and never touch what the device holds."""
        fs = mount()
        v, pages = fs.vfs, fs.vfs.pages
        v.create("/f")
        v.write("/f", 0, bytes(range(256)) * 64)  # four pages
        fs.sync()
        fs.env.checkpoint()
        stored = {id(seg) for _off, segs in fs.device.store.snapshot() for seg in segs}
        assert all(id(pages.lookup("/f", i).frame.data) in stored for i in range(4))
        image = (device_sha256(fs.device), fs.device.stats.writes)
        cow = pages.cow_copies
        v.write("/f", 0, b"A" * PAGE)  # a CoW fault: the tree shares the frame
        v.write("/f", PAGE + 10, b"patch")  # a blind patch of a clean page
        v.write("/f", 2 * PAGE + 100, b"B" * 1000)  # a partial page-cache write
        assert pages.cow_copies == cow + 2
        assert (device_sha256(fs.device), fs.device.stats.writes) == image
        assert v.read("/f", PAGE + 8, 9) == bytes([8, 9]) + b"patch" + bytes([15, 16])
