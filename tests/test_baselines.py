"""Functional tests for the baseline file-system models."""

import random
import types

import pytest

from repro.baselines import BASELINES, make_baseline
from repro.baselines.base import BaselineFS
from repro.betrfs.filesystem import MountOptions
from repro.harness.mt import device_sha256
from repro.vfs.inode import FileKind
from repro.vfs.vfs import FSError

OPTS = MountOptions(scale=1 / 32)


@pytest.fixture(params=sorted(BASELINES))
def mount(request):
    return make_baseline(request.param, OPTS)


class TestFunctional:
    def test_basic_file_lifecycle(self, mount):
        v = mount.vfs
        v.mkdir("/d")
        v.create("/d/f")
        v.write("/d/f", 0, b"hello" * 1000)
        v.fsync("/d/f")
        assert v.read("/d/f", 0, 5) == b"hello"
        assert v.readdir("/d") == ["f"]
        v.unlink("/d/f")
        v.rmdir("/d")
        assert not v.exists("/d")

    def test_data_survives_cache_drop(self, mount):
        v = mount.vfs
        v.create("/f")
        data = bytes(range(256)) * 256  # 64 KiB
        v.write("/f", 0, data)
        v.sync()
        mount.drop_caches()
        assert v.read("/f", 0, len(data)) == data

    def test_rename_preserves_data_without_copy(self, mount):
        v = mount.vfs
        v.create("/a")
        v.write("/a", 0, b"M" * 50000)
        v.sync()
        written_before = mount.device.stats.bytes_written
        v.rename("/a", "/b")
        v.sync()
        written_after = mount.device.stats.bytes_written
        # Rename is metadata-only: far less than re-writing 50 KB.
        assert written_after - written_before < 50000
        assert v.read("/b", 0, 50000) == b"M" * 50000

    def test_directory_rename_moves_subtree(self, mount):
        v = mount.vfs
        v.mkdir("/x")
        v.mkdir("/x/y")
        v.create("/x/y/f")
        v.write("/x/y/f", 0, b"deep")
        v.rename("/x", "/z")
        assert v.read("/z/y/f", 0, 4) == b"deep"
        assert not v.exists("/x")

    def test_sparse_files(self, mount):
        v = mount.vfs
        v.create("/sparse")
        v.write("/sparse", 10 * 4096, b"end")
        mount.drop_caches()
        assert v.read("/sparse", 0, 4096) == b"\x00" * 4096
        assert v.read("/sparse", 10 * 4096, 3) == b"end"

    def test_rmdir_nonempty_fails(self, mount):
        v = mount.vfs
        v.mkdir("/d")
        v.create("/d/f")
        with pytest.raises(FSError):
            v.rmdir("/d")


class TestModelBehaviour:
    def test_cold_lookup_reads_metadata_blocks(self):
        mount = make_baseline("ext4", OPTS)
        v = mount.vfs
        v.mkdir("/d")
        v.create("/d/f")
        v.sync()
        mount.drop_caches()
        reads_before = mount.device.stats.reads
        v.stat("/d/f")
        assert mount.device.stats.reads > reads_before

    def test_warm_lookup_is_read_free(self):
        mount = make_baseline("ext4", OPTS)
        v = mount.vfs
        v.mkdir("/d")
        v.create("/d/f")
        v.stat("/d/f")
        reads_before = mount.device.stats.reads
        v.stat("/d/f")
        assert mount.device.stats.reads == reads_before

    def test_random_writes_slower_than_sequential(self):
        mount = make_baseline("ext4", OPTS)
        v = mount.vfs
        v.create("/f")
        chunk = b"s" * 4096
        for i in range(256):
            v.write("/f", i * 4096, chunk)
        v.fsync("/f")
        t0 = mount.clock.now
        for i in range(256):
            v.write("/f2" if False else "/f", i * 4096, chunk)
        v.fsync("/f")
        seq_time = mount.clock.now - t0
        import random

        rng = random.Random(1)
        t0 = mount.clock.now
        for _ in range(256):
            v.write("/f", rng.randrange(256) * 4096, chunk)
        v.fsync("/f")
        rand_time = mount.clock.now - t0
        assert rand_time > seq_time * 2

    def test_zfs_random_writes_slowest(self):
        times = {}
        import random

        for name in ("xfs", "zfs"):
            mount = make_baseline(name, OPTS)
            v = mount.vfs
            v.create("/f")
            for i in range(512):
                v.write("/f", i * 4096, b"p" * 4096)
            v.fsync("/f")
            rng = random.Random(2)
            t0 = mount.clock.now
            for _ in range(256):
                v.write("/f", rng.randrange(512) * 4096, b"q" * 4096)
            v.fsync("/f")
            times[name] = mount.clock.now - t0
        assert times["zfs"] > times["xfs"]

    def test_small_files_pack_into_directory_zones(self):
        mount = make_baseline("ext4", OPTS)
        v = mount.vfs
        v.mkdir("/d")
        for i in range(64):
            path = f"/d/f{i:02d}"
            v.create(path)
            v.write(path, 0, b"t" * 200)
        v.sync()
        # Write-back of the 64 tiny files must be mostly sequential.
        s = mount.device.stats
        assert s.seq_writes > s.rand_writes

    def test_params_exist_for_all_paper_baselines(self):
        assert set(BASELINES) == {"ext4", "btrfs", "xfs", "f2fs", "zfs"}

    def test_unknown_baseline_rejected(self):
        with pytest.raises(KeyError):
            make_baseline("ntfs", OPTS)


# ---------------------------------------------------------------------------
# Rename walks the moved subtree, not the namespace
# ---------------------------------------------------------------------------


def namespace_rename(fs, src, dst, stat):
    """The whole-namespace ``BaselineFS.rename`` the subtree walk
    replaced, kept as its oracle: every path in ``_meta`` is tested
    against ``src``."""
    fs._journal_meta(2)
    moved_meta = {}
    moved_children = {}
    moved_extents = {}
    src_prefix = src + "/"
    for p in list(fs._meta.keys()):
        if p == src or p.startswith(src_prefix):
            new_p = dst + p[len(src) :]
            moved_meta[new_p] = fs._meta.pop(p)
            if p in fs._children:
                moved_children[new_p] = fs._children.pop(p)
            if p in fs._extents:
                moved_extents[new_p] = fs._extents.pop(p)
            fs._last_wb.pop(p, None)
    fs._meta.update(moved_meta)
    fs._children.update(moved_children)
    fs._extents.update(moved_extents)
    fs._children.get(fs._parent(src), set()).discard(fs._name(src))
    fs._children.setdefault(fs._parent(dst), set()).add(fs._name(dst))


def backend_state(mount):
    fs = mount.backend
    return {
        "meta": fs._meta,
        "children": fs._children,
        "extents": fs._extents,
        "last_wb": fs._last_wb,
        "clock": mount.clock.now,
        "sha256": device_sha256(mount.device),
    }


class Namespace:
    """The files and directories a script has made, so each seeded
    step picks a legal target."""

    def __init__(self, rng):
        self.rng = rng
        self.dirs = ["/"]
        self.files = []
        self.serial = 0

    def fresh(self, parent):
        self.serial += 1
        return ("" if parent == "/" else parent) + f"/n{self.serial}"

    def mkdir(self, v, path):
        v.mkdir(path)
        self.dirs.append(path)

    def write_file(self, v, path):
        if path not in self.files:
            v.create(path)
            self.files.append(path)
        size = self.rng.randrange(1, 6 * 4096)
        v.write(path, self.rng.randrange(3) * 4096, bytes([len(self.files) % 251]) * size)

    def rename(self, v, src, dst):
        v.rename(src, dst)
        self.files = [self.moved(p, src, dst) for p in self.files if p != dst]
        self.dirs = [self.moved(p, src, dst) for p in self.dirs]

    @staticmethod
    def moved(path, src, dst):
        if path == src or path.startswith(src + "/"):
            return dst + path[len(src) :]
        return path

    def leaf_dirs(self):
        return [d for d in self.dirs[1:]
                if not any(p.startswith(d + "/") for p in self.dirs + self.files)]


def rename_script(rng):
    """Seeded steps over one VFS: each is ``step(v, ns)``.  The fixed
    head covers every case the walk must match the scan on; the seeded
    tail mixes them."""
    steps = [
        lambda v, ns: ns.mkdir(v, "/x"),
        lambda v, ns: ns.mkdir(v, "/xy"),
        lambda v, ns: ns.mkdir(v, "/x/sub"),
        lambda v, ns: ns.mkdir(v, "/x/sub/deep"),
    ]
    for d in ("/x", "/xy", "/x/sub", "/x/sub/deep", "/x/sub/deep"):
        steps.append(lambda v, ns, d=d: ns.write_file(v, ns.fresh(d)))
    steps += [
        lambda v, ns: v.fsync(ns.files[0]),
        # A file onto a new name, then onto an existing one.
        lambda v, ns: ns.rename(v, ns.files[0], "/x/renamed"),
        lambda v, ns: ns.rename(v, ns.files[1], "/x/renamed"),
        # A nested directory, then names that share a prefix: moving
        # ``/x`` must leave ``/xy`` where it is, and back again.
        lambda v, ns: ns.rename(v, "/x/sub", "/xy/sub"),
        lambda v, ns: ns.rename(v, "/x", "/z"),
        lambda v, ns: ns.rename(v, "/xy", "/x"),
    ]

    def seeded(v, ns):
        choice = rng.randrange(8)
        if choice == 0:
            ns.mkdir(v, ns.fresh(rng.choice(ns.dirs)))
        elif choice in (1, 7) or not ns.files:
            ns.write_file(v, ns.fresh(rng.choice(ns.dirs)))
        elif choice == 2:
            v.fsync(rng.choice(ns.files))
        elif choice == 3:
            src = rng.choice(ns.files)
            dst = rng.choice([ns.fresh(rng.choice(ns.dirs)), *ns.files])
            if dst != src:
                ns.rename(v, src, dst)
        elif choice == 4 and len(ns.dirs) > 1:
            src = rng.choice(ns.dirs[1:])
            parents = [d for d in ns.dirs if d != src and not d.startswith(src + "/")]
            ns.rename(v, src, ns.fresh(rng.choice(parents)))
        elif choice == 5:
            path = rng.choice(ns.files)
            v.unlink(path)
            ns.files.remove(path)
        elif choice == 6 and ns.leaf_dirs():
            path = rng.choice(ns.leaf_dirs())
            v.rmdir(path)
            ns.dirs.remove(path)

    return steps + [seeded] * 40


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_subtree_rename_matches_namespace_scan(mount, seed):
    """Step by step through the VFS, the subtree walk leaves the same
    namespace, extents, write-back marks, clock and device image as
    the whole-namespace scan."""
    oracle = make_baseline(mount.name, OPTS)
    oracle.backend.rename = types.MethodType(namespace_rename, oracle.backend)
    spaces = [Namespace(random.Random(seed)), Namespace(random.Random(seed))]
    scripts = [rename_script(random.Random(seed)), rename_script(random.Random(seed))]
    for i, (step, oracle_step) in enumerate(zip(*scripts)):
        step(mount.vfs, spaces[0])
        oracle_step(oracle.vfs, spaces[1])
        assert backend_state(mount) == backend_state(oracle), f"step {i}"
    assert spaces[0].files and spaces[0].files == spaces[1].files


class NoIteration(dict):
    """A namespace dict that may be probed by key but never walked."""

    def _walked(self, *_args):
        raise AssertionError("rename iterated the whole namespace")

    __iter__ = keys = items = values = _walked


class Probed(dict):
    """A namespace dict that records every key probed or walked."""

    def __init__(self, *args):
        super().__init__(*args)
        self.probed = set()

    def keys(self):
        self.probed.update(super().keys())
        return super().keys()

    def __iter__(self):
        return iter(self.keys())

    def pop(self, key, *default):
        self.probed.add(key)
        return super().pop(key, *default)

    def get(self, key, default=None):
        self.probed.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.probed.add(key)
        return super().__contains__(key)


def crowded_ext4(files=5000):
    mount = make_baseline("ext4", OPTS)
    v = mount.vfs
    v.mkdir("/crowd")
    for i in range(files):
        v.create(f"/crowd/f{i}")
    v.mkdir("/d")
    v.mkdir("/d/e")
    for path in ("/d/a", "/d/e/b", "/d/e/c"):
        v.create(path)
        v.write(path, 0, b"s" * 100)
    v.create("/lone")
    v.sync()
    return mount


class TestRenameCost:
    def test_file_rename_never_iterates_namespace(self):
        mount = crowded_ext4()
        fs = mount.backend
        fs._meta = NoIteration(fs._meta)
        fs._children = NoIteration(fs._children)
        with pytest.raises(AssertionError, match="whole namespace"):
            namespace_rename(fs, "/lone", "/lone2", fs._meta["/lone"])
        fs.rename("/lone", "/lone2", fs._meta["/lone"])
        assert "/lone2" in fs._meta and "/lone" not in fs._meta
        assert "/lone2" not in fs._children

    @staticmethod
    def probed_rename(rename):
        mount = crowded_ext4()
        fs = mount.backend
        for name in ("_meta", "_children", "_extents"):
            setattr(fs, name, Probed(getattr(fs, name)))
        rename(fs, "/d", "/g", fs._meta["/d"])
        return mount, fs

    def test_directory_rename_visits_only_its_subtree(self):
        _mount, scan = self.probed_rename(namespace_rename)
        assert len(scan._meta.probed) > 5000
        mount, fs = self.probed_rename(BaselineFS.rename)
        subtree = {"/d", "/d/a", "/d/e", "/d/e/b", "/d/e/c"}
        assert fs._meta.probed == subtree
        assert fs._extents.probed == subtree
        # ``_children`` is also asked for the two parents it relinks.
        assert fs._children.probed == subtree | {"/"}
        assert sorted(p for p in fs._meta if p.startswith("/g")) == [
            "/g", "/g/a", "/g/e", "/g/e/b", "/g/e/c",
        ]
        assert fs._meta["/g/e"].kind is FileKind.DIR
        assert mount.vfs.read("/g/e/b", 0, 100) == b"s" * 100
