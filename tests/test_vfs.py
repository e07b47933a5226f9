"""VFS-layer tests: namespace semantics, page cache, write-back."""

import pytest

from repro.betrfs import make_betrfs
from repro.betrfs.filesystem import MountOptions
from repro.vfs.vfs import FSError

PAGE = 4096


@pytest.fixture
def fs():
    return make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32))


@pytest.fixture
def v(fs):
    return fs.vfs


class TestNamespace:
    def test_create_and_stat(self, v):
        v.create("/f")
        st = v.stat("/f")
        assert st.kind.name == "FILE"
        assert st.size == 0

    def test_create_exists_fails(self, v):
        v.create("/f")
        with pytest.raises(FSError) as err:
            v.create("/f")
        assert "EEXIST" in str(err.value)

    def test_create_in_missing_dir_fails(self, v):
        with pytest.raises(FSError) as err:
            v.create("/nodir/f")
        assert "ENOENT" in str(err.value)

    def test_mkdir_and_nesting(self, v):
        v.mkdir("/a")
        v.mkdir("/a/b")
        v.create("/a/b/f")
        assert v.stat("/a/b").kind.name == "DIR"
        assert v.readdir("/a") == ["b"]
        assert v.readdir("/a/b") == ["f"]

    def test_unlink(self, v):
        v.create("/f")
        v.unlink("/f")
        assert not v.exists("/f")
        with pytest.raises(FSError):
            v.unlink("/f")

    def test_unlink_dir_fails(self, v):
        v.mkdir("/d")
        with pytest.raises(FSError) as err:
            v.unlink("/d")
        assert "EISDIR" in str(err.value)

    def test_rmdir_requires_empty(self, v):
        v.mkdir("/d")
        v.create("/d/f")
        with pytest.raises(FSError) as err:
            v.rmdir("/d")
        assert "ENOTEMPTY" in str(err.value)
        v.unlink("/d/f")
        v.rmdir("/d")
        assert not v.exists("/d")

    def test_rename_file(self, v):
        v.create("/a")
        v.write("/a", 0, b"payload")
        v.rename("/a", "/b")
        assert not v.exists("/a")
        assert v.read("/b", 0, 7) == b"payload"

    def test_rename_over_existing_file_replaces(self, v):
        v.create("/a")
        v.write("/a", 0, b"new")
        v.create("/b")
        v.write("/b", 0, b"old")
        v.rename("/a", "/b")
        assert v.read("/b", 0, 3) == b"new"

    def test_rename_directory_moves_subtree(self, v):
        v.mkdir("/src")
        v.mkdir("/src/deep")
        v.create("/src/deep/f")
        v.write("/src/deep/f", 0, b"x" * 5000)
        v.rename("/src", "/dst")
        assert not v.exists("/src")
        assert v.read("/dst/deep/f", 0, 5000) == b"x" * 5000

    def test_readdir_sorted_complete(self, v):
        v.mkdir("/d")
        names = [f"f{i:02d}" for i in range(20)]
        for n in reversed(names):
            v.create(f"/d/{n}")
        assert v.readdir("/d") == names

    def test_readdir_plus_kinds(self, v):
        v.mkdir("/d")
        v.create("/d/file")
        v.mkdir("/d/sub")
        kinds = {n: st.kind.name for n, st in v.readdir_plus("/d")}
        assert kinds == {"file": "FILE", "sub": "DIR"}


    def test_cold_readdir_plus_has_no_repeated_name(self):
        """A cold directory scan crossing leaf boundaries, with creates
        still buffered above the leaves, lists every name once."""
        fs = make_betrfs(
            "BetrFS v0.6",
            MountOptions(
                config_tweaks={
                    "node_size": 8192,
                    "basement_size": 2048,
                    "buffer_size": 4096,
                    "fanout": 4,
                }
            ),
        )
        v = fs.vfs
        v.mkdir("/d")
        for i in range(0, 400, 2):
            v.create(f"/d/f{i:03d}")
        v.sync()
        for i in range(1, 400, 40):
            v.create(f"/d/f{i:03d}")
        v.sync()
        fs.drop_caches()
        names = [name for name, _ in v.readdir_plus("/d")]
        assert len(names) == len(set(names)) == 210


class TestDataPath:
    def test_write_read_roundtrip(self, v):
        v.create("/f")
        data = bytes(range(256)) * 64  # 16 KiB
        v.write("/f", 0, data)
        assert v.read("/f", 0, len(data)) == data
        assert v.stat("/f").size == len(data)

    def test_sparse_read_returns_zeros(self, v):
        v.create("/f")
        v.write("/f", 3 * PAGE, b"tail")
        got = v.read("/f", 0, PAGE)
        assert got == b"\x00" * PAGE

    def test_partial_overwrite(self, v):
        v.create("/f")
        v.write("/f", 0, b"a" * PAGE)
        v.write("/f", 100, b"MID")
        got = v.read("/f", 98, 7)
        assert got == b"aaMIDaa"

    def test_read_past_eof_truncates(self, v):
        v.create("/f")
        v.write("/f", 0, b"short")
        assert v.read("/f", 0, 1000) == b"short"
        assert v.read("/f", 100, 10) == b""

    def test_write_survives_cache_drop(self, v, fs):
        v.create("/f")
        data = b"Q" * (8 * PAGE)
        v.write("/f", 0, data)
        v.fsync("/f")
        fs.drop_caches()
        assert v.read("/f", 0, len(data)) == data

    def test_blind_patch_of_uncached_block(self, v, fs):
        v.create("/f")
        v.write("/f", 0, b"a" * (4 * PAGE))
        v.fsync("/f")
        fs.drop_caches()
        v.write("/f", 10, b"ZZ")  # small write, cold page -> blind patch
        assert v.read("/f", 8, 6) == b"aaZZaa"
        v.fsync("/f")
        fs.drop_caches()
        assert v.read("/f", 8, 6) == b"aaZZaa"

    def test_unlink_then_recreate_is_empty(self, v):
        v.create("/f")
        v.write("/f", 0, b"old" * 100)
        v.fsync("/f")
        v.unlink("/f")
        v.create("/f")
        assert v.stat("/f").size == 0
        assert v.read("/f", 0, 10) == b""


class TestWriteBackAndSharing:
    def test_dirty_pages_written_back_on_fsync(self, v, fs):
        v.create("/f")
        v.write("/f", 0, b"d" * PAGE)
        assert fs.vfs.pages.dirty_bytes == PAGE
        v.fsync("/f")
        assert fs.vfs.pages.dirty_bytes == 0

    def test_page_sharing_marks_frames_shared(self, fs, v):
        assert fs.features.page_sharing
        v.create("/f")
        v.write("/f", 0, b"s" * PAGE)
        v.fsync("/f")
        page = fs.vfs.pages.lookup("/f", 0)
        assert page.writeback_shared
        assert page.frame.refs >= 2  # page cache + tree

    def test_cow_on_write_to_shared_page(self, fs, v):
        v.create("/f")
        v.write("/f", 0, b"1" * PAGE)
        v.fsync("/f")
        old_frame = fs.vfs.pages.lookup("/f", 0).frame
        v.write("/f", 0, b"2" * PAGE)  # CoW: tree still references old
        new_frame = fs.vfs.pages.lookup("/f", 0).frame
        assert new_frame is not old_frame
        assert fs.vfs.pages.cow_copies >= 1
        assert v.read("/f", 0, 4) == b"2222"

    def test_no_sharing_without_pgsh(self):
        fs = make_betrfs("+RG", MountOptions(scale=1 / 32))
        v = fs.vfs
        v.create("/f")
        v.write("/f", 0, b"x" * PAGE)
        v.fsync("/f")
        page = fs.vfs.pages.lookup("/f", 0)
        assert not page.writeback_shared


class TestDirtyInodes:
    def test_conditional_logging_defers_insert(self, fs, v):
        assert fs.features.conditional_logging
        before = fs.env.meta.stats.inserts
        v.create("/deferred")
        assert fs.env.meta.stats.inserts == before  # not in the tree yet
        assert fs.backend.deferred_creates == 1
        assert v.exists("/deferred")  # served from the dirty inode
        v.sync()
        assert fs.backend.deferred_creates == 0
        assert fs.env.meta.stats.inserts > before

    def test_deferred_create_survives_crash_after_sync(self, fs, v):
        v.create("/d1")
        v.sync()
        # Reboot the whole stack from the device image.
        from repro.core.env import KVEnv
        from repro.kmem.allocator import KernelAllocator
        from repro.model.costs import CostModel
        from repro.storage.sfl import SimpleFileLayer

        image = fs.device.crash_image()
        from repro.check.fsck import fsck_device

        fsck_device(
            image,
            log_size=fs.opts.log_size,
            meta_size=fs.opts.meta_size,
            aligned=fs.config.page_sharing,
        ).raise_if_errors()
        costs = CostModel()
        env2 = KVEnv.open(
            SimpleFileLayer(image, costs, log_size=fs.opts.log_size,
                            meta_size=fs.opts.meta_size),
            image.clock,
            costs,
            KernelAllocator(image.clock, costs),
            fs.config,
            log_size=fs.opts.log_size,
            meta_size=fs.opts.meta_size,
            data_size=fs.opts.data_size,
            log_page_values=False,
        )
        from repro.core.env import META

        assert env2.get(META, b"/d1") is not None
