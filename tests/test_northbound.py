"""Tests for the BetrFS northbound layer (schema + optimizations)."""

import pytest

from repro.betrfs import make_betrfs
from repro.betrfs.filesystem import MountOptions
from repro.core.env import DATA, META
from repro.core.keys import data_key, meta_key
from repro.core.messages import value_bytes
from repro.vfs.inode import FileKind, Stat

OPTS = MountOptions(scale=1 / 32)


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
    def test_cold_read_queries_only_the_blocks_the_file_has(self):
        """Read-ahead stops at EOF: a cold read of a 5-block file is 5
        point queries, not one per slot of the 32-page window."""
        fs = mount("BetrFS v0.6")
        v = fs.vfs
        v.create("/small")
        v.write("/small", 0, b"s" * (20 << 10))
        v.sync()
        fs.drop_caches()
        before = fs.env.data.stats.queries
        assert v.read("/small", 0, 20 << 10) == b"s" * (20 << 10)
        assert fs.env.data.stats.queries == before + 5

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
