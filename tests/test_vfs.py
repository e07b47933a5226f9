"""VFS-layer tests: namespace semantics, page cache, write-back."""

import errno
import random

import pytest

from repro.betrfs import make_betrfs
from repro.betrfs.filesystem import MountOptions
from repro.core.env import DATA
from repro.core.keys import data_key
from repro.core.messages import value_bytes
from repro.harness.runner import TABLE3_SYSTEMS, make_mount
from repro.shard import make_sharded_betrfs
from repro.vfs.pagecache import CachedPage
from repro.vfs.vfs import FSError
from repro.workloads.scale import SMOKE_SCALE
from tests.conftest import reboot

PAGE = 4096


@pytest.fixture
def fs():
    return make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32))


@pytest.fixture
def v(fs):
    return fs.vfs


def count_dirty_reads(fs, files, pages_each):
    """Fill the page cache with ``files`` written files, sync, dirty
    ``/f007`` again, and return a reader of how many times any cached
    page's ``dirty`` bit has been examined since (a count, not a
    timing: the same on every machine)."""
    v = fs.vfs
    for i in range(files):
        v.create(f"/f{i:03d}")
        v.write(f"/f{i:03d}", 0, (b"%d" % (i % 10)) * (pages_each * PAGE))
    v.sync()
    v.write("/f007", 0, b"7" * (pages_each * PAGE))
    assert len(v.pages._pages) == files * pages_each
    seen = [0]

    class Probe(CachedPage):
        def __getattribute__(self, name):
            if name == "dirty":
                seen[0] += 1
            return super().__getattribute__(name)

    for page in v.pages._pages.values():
        page.__class__ = Probe
    return lambda: seen[0]


def record_reads(mount):
    """Record, as ``(path, idx, count, seq_hint)``, every ``read_pages``
    call the mount's backend receives from here on."""
    calls = []
    inner = mount.backend.read_pages

    def read_pages(path, idx, count, seq_hint):
        calls.append((path, idx, count, seq_hint))
        return inner(path, idx, count, seq_hint)

    mount.backend.read_pages = read_pages
    return calls


def pages_requested(calls, path):
    return [i for p, idx, count, _hint in calls if p == path for i in range(idx, idx + count)]


def pages_cached(v, path):
    mapping = v.pages._files.get(path)
    return [] if mapping is None else sorted(mapping.pages)


def scan(v, path, size, chunk=16 * PAGE):
    """``path`` read front to back in ``chunk``-sized calls (cp, grep)."""
    return b"".join(v.read(path, off, chunk) for off in range(0, size, chunk))


def model_write(model, offset, data):
    """``pwrite`` on a ``bytearray`` model: a gap before ``offset`` is zeros."""
    model.extend(b"\x00" * (offset - len(model)))
    model[offset : offset + len(data)] = data


def system_mount(system):
    """One of the 13 Table 3 mounts at smoke scale, or ``shardsN``: v0.6
    on N hash-partitioned volumes."""
    if system.startswith("shards"):
        shards = int(system[len("shards"):])
        return make_sharded_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32), shards=shards)
    return make_mount(system, SMOKE_SCALE)


#: rename(2) as Linux answers it: case -> (files and directories made
#: first, a trailing "/" for a directory; source; destination; the
#: errno, or None when the rename succeeds; the names in "/" after; a
#: file that must still read b"hello").
RENAME_CASES = {
    "into a missing parent": (["/f"], "/f", "/nope/g", errno.ENOENT, ["f"], "/f"),
    "under a file": (["/g", "/h"], "/h", "/g/x", errno.ENOTDIR, ["g", "h"], "/h"),
    "directory onto a file": (
        ["/d/", "/d/x", "/f"], "/d", "/f", errno.ENOTDIR, ["d", "f"], "/d/x"
    ),
    "file onto a directory": (["/f", "/d/"], "/f", "/d", errno.EISDIR, ["d", "f"], "/f"),
    "directory onto a non-empty directory": (
        ["/a/", "/a/x", "/b/", "/b/y"], "/a", "/b", errno.ENOTEMPTY, ["a", "b"], "/b/y"
    ),
    "directory onto an empty directory": (
        ["/a/", "/a/x", "/b/"], "/a", "/b", None, ["b"], "/b/x"
    ),
    "a name onto itself": (["/f"], "/f", "/f", None, ["f"], "/f"),
}


def cold_file(mount, path, size):
    """``size`` patterned bytes at ``path``, on the device only."""
    body = (bytes(range(251)) * (size // 251 + 1))[:size]
    mount.vfs.create(path)
    mount.vfs.write(path, 0, body)
    mount.vfs.sync()
    mount.drop_caches()
    return body


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

    def test_rename_directory_onto_a_name_with_cached_absences(self, v):
        """Lookups below a name cache their ENOENT; a directory renamed
        to that name (or to one a renamed-away file had) brings real
        children there, so the stale absences must go with it."""
        assert not v.exists("/new/x")
        v.create("/file")
        assert not v.exists("/file/x")
        v.rename("/file", "/elsewhere")
        for dst in ("/new", "/file"):
            v.mkdir("/d")
            v.create("/d/x")
            v.rename("/d", dst)
            assert v.exists(dst + "/x")
            assert not v.exists("/d/x")

    @pytest.mark.parametrize("system", TABLE3_SYSTEMS + ["shards2"])
    def test_rename_of_a_directory_into_its_own_subtree_is_einval(self, system):
        """rename(2): a directory cannot become its own descendant, and
        the refused rename leaves the namespace as it was."""
        v = system_mount(system).vfs
        v.mkdir("/a")
        v.create("/a/f")
        v.write("/a/f", 0, b"kept")
        for dst in ("/a/b", "/a/f/g"):
            with pytest.raises(FSError) as err:
                v.rename("/a", dst)
            assert err.value.code == errno.EINVAL
        assert v.readdir("/") == ["a"]
        assert v.readdir("/a") == ["f"]
        assert v.read("/a/f", 0, 4) == b"kept"
        v.rename("/a", "/ab")  # a sibling sharing the name's prefix
        assert v.readdir("/") == ["ab"]
        assert v.read("/ab/f", 0, 4) == b"kept"

    @pytest.mark.parametrize("case", sorted(RENAME_CASES))
    @pytest.mark.parametrize("system", TABLE3_SYSTEMS + ["shards4"])
    def test_rename_answers_as_linux_does(self, system, case):
        """rename(2)'s checks of the destination, made before anything
        moves: a refused rename leaves the namespace as it was."""
        v = system_mount(system).vfs
        setup, src, dst, code, names, kept = RENAME_CASES[case]
        for path in setup:
            if path.endswith("/"):
                v.mkdir(path.rstrip("/"))
            else:
                v.create(path)
                v.write(path, 0, b"hello")
        if code is None:
            v.rename(src, dst)
        else:
            with pytest.raises(FSError) as err:
                v.rename(src, dst)
            assert err.value.code == code
        assert v.readdir("/") == names
        assert v.read(kept, 0, 5) == b"hello"

    def test_rename_of_a_file_scans_no_other_file(self, fs, v, monkeypatch):
        """A regular file has nothing cached below it: its rename reads
        the dirty bit of its own pages only and never walks the dcache."""
        reads = count_dirty_reads(fs, files=300, pages_each=2)
        monkeypatch.delattr(type(v.dcache), "invalidate_tree")
        v.rename("/f007", "/g")
        assert reads() <= 3 * 2  # write-back scan, mark_clean, drop_file
        assert v.read("/g", 0, 4) == b"7777"
        assert not v.exists("/f007")

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

    def test_blind_patch_into_a_hole_reads_as_a_whole_page(self, v, fs):
        """The tree materializes a patched hole as a short value; the
        page the VFS caches is zero-extended, so the bytes behind it
        stay at their offsets and a later patch of the cached copy
        lands where it was aimed."""
        v.create("/f")
        v.write("/f", PAGE, b"tail!")  # page 0 is a hole
        v.write("/f", 0, b"head")  # blind patch: a 4-byte block
        expect = b"head" + b"\x00" * (PAGE - 4) + b"tail!"
        for _ in range(2):
            assert v.read("/f", 0, 2 * PAGE) == expect
            v.sync()
            fs.drop_caches()
        assert v.read("/f", 0, PAGE) == expect[:PAGE]
        v.write("/f", 100, b"mid")  # patches the clean cached copy
        assert v.read("/f", 98, 7) == b"\x00\x00mid\x00\x00"

    def test_unlink_then_recreate_is_empty(self, v):
        v.create("/f")
        v.write("/f", 0, b"old" * 100)
        v.fsync("/f")
        v.unlink("/f")
        v.create("/f")
        assert v.stat("/f").size == 0
        assert v.read("/f", 0, 10) == b""


class TestReadAheadWindow:
    """The read-ahead window stops at the file's last page: no backend
    is asked for, and the page cache never holds, a page past EOF."""

    def test_cold_read_of_a_small_file_requests_only_its_pages(self, fs, v):
        body = cold_file(fs, "/f", 5 * PAGE - 100)
        calls = record_reads(fs)
        assert v.read("/f", 0, 16 * PAGE) == body
        assert calls == [("/f", 0, 5, True)]
        assert pages_cached(v, "/f") == [0, 1, 2, 3, 4]

    def test_sequential_scan_requests_every_page_once(self, fs, v):
        body = cold_file(fs, "/f", 100 * PAGE - 1)
        calls = record_reads(fs)
        assert scan(v, "/f", len(body)) == body
        assert pages_requested(calls, "/f") == list(range(100))
        assert [count for _p, _i, count, _h in calls] == [32, 32, 32, 4]

    @pytest.mark.parametrize(
        "size, reads, expected",
        [
            pytest.param(4 * PAGE, [(0, 16 * PAGE)], [("/f", 0, 4, True)], id="exact-multiple"),
            pytest.param(1, [(0, 16 * PAGE)], [("/f", 0, 1, False)], id="one-byte"),
            pytest.param(
                40 * PAGE - 7,
                [(38 * PAGE, PAGE), (39 * PAGE, PAGE)],  # a streak into the last page
                [("/f", 38, 1, False), ("/f", 39, 1, True)],
                id="starts-in-last-page",
            ),
            pytest.param(
                40 * PAGE,
                [(30 * PAGE + 5, 16 * PAGE)],
                [("/f", 30, 10, True)],
                id="window-cut-by-eof",
            ),
        ],
    )
    def test_no_page_past_eof_is_requested(self, fs, v, size, reads, expected):
        body = cold_file(fs, "/f", size)
        calls = record_reads(fs)
        for offset, length in reads:
            assert v.read("/f", offset, length) == body[offset : offset + length]
        assert calls == expected
        assert max(pages_cached(v, "/f")) <= (size - 1) // PAGE

    def test_unhinted_read_still_requests_one_page(self, fs, v):
        body = cold_file(fs, "/f", 40 * PAGE)
        calls = record_reads(fs)
        assert v.read("/f", 7 * PAGE, PAGE) == body[7 * PAGE : 8 * PAGE]
        assert calls == [("/f", 7, 1, False)]
        assert pages_cached(v, "/f") == [7]

    @pytest.mark.parametrize("offset", [7 * PAGE, 7 * PAGE + 100], ids=["aligned", "straddling"])
    def test_unhinted_read_requests_every_page_it_covers_at_once(self, fs, v, offset):
        """Linux's synchronous read-ahead: a cold read of two pages is
        one backend request for both, not one per page."""
        body = cold_file(fs, "/f", 40 * PAGE)
        calls = record_reads(fs)
        length = 2 * PAGE if offset % PAGE == 0 else PAGE + 200
        assert v.read("/f", offset, length) == body[offset : offset + length]
        assert calls == [("/f", 7, 2, False)]
        assert pages_cached(v, "/f") == [7, 8]

    def test_unhinted_read_asks_from_the_first_missing_page(self, fs, v):
        body = cold_file(fs, "/f", 40 * PAGE)
        v.read("/f", 7 * PAGE, PAGE)
        calls = record_reads(fs)
        assert v.read("/f", 20 * PAGE, 100) == body[20 * PAGE : 20 * PAGE + 100]
        assert v.read("/f", 7 * PAGE, 3 * PAGE) == body[7 * PAGE : 10 * PAGE]
        assert calls == [("/f", 20, 1, False), ("/f", 8, 2, False)]

    @pytest.mark.parametrize("system", TABLE3_SYSTEMS + ["shards4"])
    def test_every_system_reads_the_same_bytes_and_nothing_past_eof(self, system):
        """One seeded read script on every mount: contents equal the
        model's (holes inside a sparse file read as zeros), no backend
        saw a page index >= ceil(size / PAGE), the page cache holds none."""
        mount = system_mount(system)
        v = mount.vfs
        rng = random.Random(19)
        model = {}
        v.mkdir("/d")
        for path, extents in {
            "/d/dense": [(0, 150_001)],
            "/d/exact": [(0, 8 * PAGE)],
            "/d/tiny": [(0, 1)],
            "/d/sparse": [(0, PAGE), (9 * PAGE + 100, 3000), (30 * PAGE, 2 * PAGE + 17)],
            "/sparse-tail": [(45 * PAGE - 1, 1)],
        }.items():
            v.create(path)
            body = bytearray()
            for offset, length in extents:
                data = rng.randbytes(length)
                v.write(path, offset, data)
                model_write(body, offset, data)
            model[path] = bytes(body)
        v.sync()
        mount.drop_caches()
        calls = record_reads(mount)
        for path, body in model.items():
            if rng.random() < 0.5:
                assert scan(v, path, len(body)) == body
        for _ in range(150):
            path = rng.choice(list(model))
            body = model[path]
            offset = rng.randrange(len(body) + PAGE)
            length = rng.choice([1, 100, PAGE, 5 * PAGE, 16 * PAGE, 50 * PAGE])
            assert v.read(path, offset, length) == body[offset : offset + length]
            if rng.random() < 0.1:
                mount.drop_caches()
        assert v.read("/d/sparse", 2 * PAGE, 3 * PAGE) == b"\x00" * (3 * PAGE)
        for path, body in model.items():
            npages = -(-len(body) // PAGE)
            mount.drop_caches()
            assert v.read(path, 0, len(body) + PAGE) == body
            assert pages_cached(v, path) == list(range(npages))
            assert max(pages_requested(calls, path)) == npages - 1


class TestRenameKeepsTheCache:
    """A file's rename moves its inode and cached pages to the new name
    (Linux renames a dentry; the pages belong to the inode); a
    directory's rename drops its subtree's."""

    @pytest.mark.parametrize("system", TABLE3_SYSTEMS + ["shards4"])
    def test_a_renamed_file_reads_back_from_the_page_cache(self, system):
        mount = system_mount(system)
        v = mount.vfs
        v.mkdir("/d")
        v.mkdir("/e")
        body = cold_file(mount, "/d/read", 3 * PAGE + 5)  # cached by a read
        v.read("/d/read", 0, len(body))
        v.create("/d/written")  # cached by the write itself
        v.write("/d/written", 0, b"w" * (2 * PAGE + 9))
        v.sync()
        inode = v.dcache.get("/d/read")
        calls = record_reads(mount)
        v.rename("/d/read", "/e/read")
        v.rename("/d/written", "/e/written")
        assert v.read("/e/read", 0, 8 * PAGE) == body
        assert v.read("/e/written", 0, 8 * PAGE) == b"w" * (2 * PAGE + 9)
        assert calls == []
        assert v.dcache.get("/e/read") is inode and inode.path == "/e/read"
        assert v.dcache.contains("/d/read") and not v.exists("/d/read")
        assert pages_cached(v, "/d/read") == pages_cached(v, "/d/written") == []

    def test_rename_onto_an_existing_name_drops_its_pages(self, fs, v):
        v.create("/a")
        v.write("/a", 0, b"a" * 100)
        v.create("/b")
        v.write("/b", 0, b"b" * (3 * PAGE))
        v.sync()
        replaced = [v.pages.lookup("/b", i).frame for i in range(3)]
        v.rename("/a", "/b")
        assert pages_cached(v, "/b") == [0] and pages_cached(v, "/a") == []
        assert v.pages.lookup("/b", 0).frame not in replaced
        assert v.read("/b", 0, 3 * PAGE) == b"a" * 100
        fs.drop_caches()
        assert v.read("/b", 0, 3 * PAGE) == b"a" * 100

    def test_a_dirty_file_is_written_back_under_its_old_name_first(self, fs, v, monkeypatch):
        v.create("/a")
        v.write("/a", 0, b"x" * (2 * PAGE))
        v.sync()
        v.write("/a", PAGE, b"y" * PAGE)  # page 1 dirty again
        events = []
        for name in ("write_page", "rename"):
            real = getattr(fs.backend, name)
            monkeypatch.setattr(
                fs.backend,
                name,
                lambda path, *rest, name=name, real=real: (
                    events.append((name, path)), real(path, *rest)
                )[1],
            )
        v.rename("/a", "/b")
        assert events == [("write_page", "/a"), ("rename", "/a")]
        assert pages_cached(v, "/b") == [0, 1] and not v.pages.dirty_pages("/b")
        expect = b"x" * PAGE + b"y" * PAGE
        assert v.read("/b", 0, 2 * PAGE) == expect
        fs.drop_caches()
        assert v.read("/b", 0, 2 * PAGE) == expect

    def test_a_directory_rename_drops_its_subtree(self, fs, v):
        v.mkdir("/d")
        v.create("/d/f")
        v.write("/d/f", 0, b"o" * (2 * PAGE))
        v.sync()
        calls = record_reads(fs)
        v.rename("/d", "/e")
        assert pages_cached(v, "/d/f") == pages_cached(v, "/e/f") == []
        assert not v.dcache.contains("/d/f") and not v.exists("/d")
        assert v.read("/e/f", 0, 2 * PAGE) == b"o" * (2 * PAGE)
        assert pages_requested(calls, "/e/f") == [0, 1]
        # A new file under the old name sees none of the old bytes.
        v.mkdir("/d")
        v.create("/d/f")
        v.write("/d/f", 0, b"n" * 10)
        v.write("/d/f", 100, b"z")
        assert v.read("/d/f", 0, PAGE) == b"n" * 10 + b"\x00" * 90 + b"z"

    @pytest.mark.parametrize("system", TABLE3_SYSTEMS + ["shards4"])
    def test_renames_reads_and_writes_match_a_bytearray_model(self, system):
        """A seeded script of writes, reads and renames — onto free
        names and onto existing files, with syncs and cache drops in
        between — reads back what a ``bytearray`` per name holds."""
        mount = system_mount(system)
        v = mount.vfs
        rng = random.Random(21)
        names = [f"/{d}/{n}" for d in "pq" for n in "abc"]
        v.mkdir("/p")
        v.mkdir("/q")
        model = {}
        for step in range(160):
            roll = rng.random()
            path = rng.choice(names)
            if roll < 0.35:
                if path not in model:
                    v.create(path)
                    model[path] = bytearray()
                offset = rng.randrange(len(model[path]) + 2 * PAGE)
                data = bytes([1 + step % 255]) * rng.choice([3, 14, 700, PAGE, 3 * PAGE + 5])
                v.write(path, offset, data)
                model_write(model[path], offset, data)
            elif roll < 0.65 and path in model:
                body = bytes(model[path])
                offset = rng.randrange(len(body) + 1)
                length = rng.choice([1, 100, PAGE, 6 * PAGE])
                assert v.read(path, offset, length) == body[offset : offset + length]
            elif roll < 0.85 and path in model:
                dst = rng.choice([n for n in names if n != path])
                v.rename(path, dst)
                model[dst] = model.pop(path)
            elif roll < 0.93:
                v.sync()
            else:
                v.sync()
                mount.drop_caches()
        v.sync()
        mount.drop_caches()
        assert sorted(n for n in names if v.exists(n)) == sorted(model)
        for path, body in model.items():
            assert v.read(path, 0, len(body) + PAGE) == bytes(body)


class SliceLedger(bytes):
    """``bytes`` that records the length of every slice taken of it."""

    def __new__(cls, data, ledger):
        self = super().__new__(cls, data)
        self.ledger = ledger
        return self

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice):
            self.ledger.append(len(out))
        return out


class TestWriteChunking:
    """``VFS.write`` against a ``bytearray`` model: unaligned,
    multi-page, blind-patched and read-modify-write chunks."""

    def test_patch_of_a_clean_cached_page_does_not_end_the_write(self, fs, v):
        """A small first chunk into a clean cached page takes the
        blind-patch branch and updates the cached copy in place; the
        write goes on to the pages after it."""
        assert fs.backend.supports_blind_patch
        v.create("/f")
        v.write("/f", 0, b"a" * (4 * PAGE))
        v.sync()
        assert not v.pages.lookup("/f", 0).dirty
        patches = fs.env.data.stats.patches
        data = b"B" * (100 + PAGE + 50)
        assert v.write("/f", PAGE - 100, data) == len(data)
        # Head and tail chunks are patches; the full page between is not.
        assert fs.env.data.stats.patches == patches + 2
        assert [idx for _p, idx, _pg in v.pages.dirty_pages("/f")] == [1]
        expect = b"a" * (PAGE - 100) + data + b"a" * (2 * PAGE - 50)
        assert v.read("/f", 0, 5 * PAGE) == expect
        v.sync()
        fs.drop_caches()
        assert v.read("/f", 0, 5 * PAGE) == expect

    @pytest.mark.parametrize("system", ["BetrFS v0.6", "+RG", "ext4"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_writes_match_a_bytearray_model(self, system, seed):
        mount = make_mount(system, SMOKE_SCALE)
        v = mount.vfs
        rng = random.Random(seed)
        v.create("/f")
        model = bytearray()
        for step in range(120):
            length = rng.choice(
                [
                    rng.randint(1, 16),  # blind-patchable
                    rng.randint(17, PAGE // 8),
                    rng.randint(PAGE // 8 + 1, PAGE - 1),  # RMW of a cold block
                    PAGE * rng.randint(1, 4),
                    rng.randint(PAGE, 5 * PAGE),  # unaligned, multi-page
                ]
            )
            offset = rng.choice([0, PAGE, 1, PAGE - 1]) * rng.randint(0, 5)
            offset = min(offset + rng.randint(0, 3) * PAGE, len(model) + PAGE)
            data = bytes([1 + step % 255]) * length
            assert v.write("/f", offset, data) == length
            model_write(model, offset, data)
            assert v.stat("/f").size == len(model)
            # Leave the next write clean cached, cold or dirty pages.
            fate = rng.random()
            if fate < 0.3:
                v.sync()
            elif fate < 0.5:
                v.sync()
                mount.drop_caches()
            if step % 10 == 9:
                assert v.read("/f", 0, len(model) + 1) == bytes(model)
        v.sync()
        mount.drop_caches()
        assert v.read("/f", 0, len(model) + 1) == bytes(model)

    def test_a_large_write_slices_its_data_once_per_page(self, v):
        """Chunking is linear: 256 page-sized slices of the caller's
        buffer, never a re-slice of the unwritten rest."""
        ledger = []
        v.create("/f")
        v.write("/f", 0, SliceLedger(b"w" * (1 << 20), ledger))
        assert ledger == [PAGE] * 256
        ledger.clear()
        v.write("/f", 100, SliceLedger(b"u" * (1 << 20), ledger))
        assert ledger == [PAGE - 100] + [PAGE] * 255 + [100]


class TestWriteBackAndSharing:
    def test_fsync_examines_only_the_files_own_pages(self, fs, v):
        reads = count_dirty_reads(fs, files=1500, pages_each=2)
        v.fsync("/f007")
        assert fs.vfs.pages.dirty_bytes == 0
        # dirty_pages(path) reads each of the 2 pages once, mark_clean
        # once more; none of the other 2,998 cached pages is looked at.
        assert reads() <= 4

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

    def test_readahead_over_a_cached_page_leaks_no_frame_reference(self, fs, v):
        """Read-ahead fetches a page that is already cached: the
        reference the backend took on the shared frame is dropped with
        the duplicate, so dropping both caches leaves none behind."""
        cold_file(fs, "/f", 40 * PAGE)
        v.read("/f", 5 * PAGE, PAGE)
        frame = v.pages.lookup("/f", 5).frame
        cached_and_tree = frame.refs
        assert cached_and_tree >= 2  # shared with the tree, not copied
        v.read("/f", 0, 16 * PAGE)  # the window covers page 5 again
        assert v.pages.lookup("/f", 5).frame is frame
        assert frame.refs == cached_and_tree
        fs.drop_caches()
        assert frame.refs == 0

    def test_readahead_looks_each_cached_page_up_once(self, fs, v, monkeypatch):
        """The fill asks the page cache once per index of its window,
        cached or not; the read loop once per page it copies out."""
        cold_file(fs, "/f", 40 * PAGE)
        v.read("/f", 5 * PAGE, PAGE)
        asked = []
        real = v.pages.lookup
        monkeypatch.setattr(
            v.pages, "lookup", lambda path, idx: asked.append(idx) or real(path, idx)
        )
        hits = v.pages.hits
        v.read("/f", 0, 16 * PAGE)  # a 32-page window over cached page 5
        assert sorted(asked) == sorted([*range(32), *range(16)])
        assert v.pages.hits == hits + 16

    def test_a_small_write_to_a_read_page_edits_the_leafs_frame_in_place(self, fs, v):
        """Pinned as found: a read under page sharing caches the leaf's
        own frame (not ``writeback_shared``), and a blind patch of the
        cached copy rewrites ``frame.data`` — so the cached leaf's value
        changes before the patch message reaches it.  What keeps that
        harmless: the message, logged first, writes the same bytes; the
        leaf stays clean, so no node is written with them early."""
        v.create("/f")
        v.write("/f", 0, b"a" * (4 * PAGE))
        for i in range(8):  # an internal root, so the patch stays buffered
            v.create(f"/g{i}")
            v.write(f"/g{i}", 0, b"g" * (64 * PAGE))
        v.sync()
        fs.drop_caches()
        tree = fs.env.data
        assert tree._load_node(tree.root_id).height >= 1
        v.read("/f", 0, PAGE)
        page = v.pages.lookup("/f", 0)
        leaf, value = next(
            (n, b.get(data_key("/f", 0))[1])
            for n, _o in fs.env.cache._nodes.values()
            if n.is_leaf
            for b in n.basements
            if b.loaded and b.get(data_key("/f", 0))[0]
        )
        assert value is page.frame and not page.writeback_shared
        applied = tree.stats.messages_applied
        v.write("/f", 10, b"B" * 14)  # blind patch of the clean cached page
        assert tree.stats.messages_applied == applied  # still buffered above
        expect = b"a" * 10 + b"B" * 14 + b"a" * (PAGE - 24)
        assert value.data == expect and not leaf.dirty
        assert value_bytes(fs.env.get(DATA, data_key("/f", 0))) == expect
        v.fsync("/f")
        assert reboot(fs).vfs.read("/f", 0, PAGE) == expect

    def test_read_rename_patch_crash_reads_the_new_bytes(self, fs, v):
        """A renamed file keeps the tree-shared frames its read cached:
        a 14-byte write to it after the rename is durable under the new
        name, and dropping the caches still releases every frame."""
        body = cold_file(fs, "/src", 3 * PAGE)
        v.read("/src", 0, len(body))
        frames = [v.pages.lookup("/src", i).frame for i in range(3)]
        assert all(frame.refs >= 2 for frame in frames)  # shared with the tree
        v.rename("/src", "/dst")
        assert [v.pages.lookup("/dst", i).frame for i in range(3)] == frames
        v.write("/dst", PAGE + 7, b"fourteen bytes")
        v.fsync("/dst")
        expect = body[: PAGE + 7] + b"fourteen bytes" + body[PAGE + 21 :]
        assert v.read("/dst", 0, len(body)) == expect
        recovered = reboot(fs).vfs
        assert recovered.read("/dst", 0, len(body) + 1) == expect
        assert not recovered.exists("/src")
        frames += [page.frame for _key, page in v.pages]
        fs.drop_caches()
        assert [frame.refs for frame in frames] == [0] * len(frames)
        assert v.read("/dst", 0, len(body)) == expect

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
        assert fs.env.deferred_count == 1
        assert v.exists("/deferred")  # served from the dirty inode
        v.sync()
        assert fs.env.deferred_count == 0
        assert fs.env.meta.stats.inserts > before

    def test_deferred_create_survives_crash_after_sync(self, fs, v):
        v.create("/d1")
        v.sync()
        assert reboot(fs).vfs.exists("/d1")

    def test_rename_writes_the_dirty_inode_in_hand_and_no_other(
        self, fs, v, monkeypatch
    ):
        """A file has no inode below its name, so rename tests the one
        it resolved instead of walking the dcache: the deferred stat
        reaches the tree under the old name, moves, and is durable
        under the new one; a dirty sibling stays deferred."""
        v.create("/a")
        v.create("/sibling")
        v.write("/a", 0, b"x" * 5000)
        a, sibling = v.dcache.get("/a"), v.dcache.get("/sibling")
        assert a.dirty and sibling.dirty and fs.env.deferred_count == 2
        written = []
        set_stat = fs.backend.set_stat
        monkeypatch.setattr(
            fs.backend,
            "set_stat",
            lambda path, *rest: (written.append(path), set_stat(path, *rest))[1],
        )
        monkeypatch.delattr(type(v.dcache), "dirty_inodes")
        v.rename("/a", "/b")
        assert written == ["/a"]
        assert not a.dirty
        assert sibling.dirty and fs.env.deferred_count == 1
        v.fsync("/b")
        v2 = reboot(fs).vfs
        assert v2.stat("/b").size == 5000
        assert v2.read("/b", 0, 5000) == b"x" * 5000
        assert not v2.exists("/a")
