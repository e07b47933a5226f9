"""The persistence contract in syscall terms, on re-mounted images.

Every mount here is crashed and *re-mounted as a file system* — the
one assembler given a crash image instead of a blank device — and all
checks read back through the recovered mount's ``vfs``
(``stat``/``read``/``readlink``/``readdir_plus``), never a bare key
lookup.  Covered: the 9 Table 3 rows and the sharded v0.6 mount with 1
and 4 volumes.
"""

import pytest

from repro.betrfs.filesystem import MountOptions, make_betrfs
from repro.betrfs.versions import VERSIONS
from repro.check.errors import FsckError
from repro.check.fsck import fsck_mount
from repro.crashmc.plan import CrashPlan
from repro.shard.mount import make_sharded_betrfs
from repro.vfs.inode import FileKind
from repro.vfs.vfs import FSError
from tests.conftest import reboot

MIB = 1 << 20

BODY = bytes(range(256)) * 40  # 10,240 B: two full pages and a tail

#: Sharded ids name the partitioning policy, hash (the only one).
MOUNTS = [pytest.param((name, 0), id=name) for name in VERSIONS] + [
    pytest.param(("BetrFS v0.6", n), id=f"shards{n}-hash") for n in (1, 4)
]


def build(spec, **opts):
    name, shards = spec
    # Recovery reads each volume's whole log region: keep it small.
    opts.setdefault("log_size", 4 * MIB)
    options = MountOptions(scale=1 / 32, **opts)
    if shards:
        return make_sharded_betrfs(name, options, shards=shards)
    return make_betrfs(name, options)


@pytest.fixture(params=MOUNTS)
def mount(request):
    return build(request.param)


def populate(v):
    """A small namespace, every part of it fsynced or synced."""
    v.mkdir("/d")
    v.mkdir("/e")
    v.create("/d/kept")
    v.write("/d/kept", 0, BODY)
    v.fsync("/d/kept")
    v.create("/d/old-name")
    v.write("/d/old-name", 0, BODY[::-1])
    v.fsync("/d/old-name")
    v.rename("/d/old-name", "/e/new-name")
    v.symlink("/d/kept", "/e/link")
    v.sync()


def walk(v, path="/"):
    """Everything the namespace externalizes below ``path``."""
    out = {}
    for name, stat in v.readdir_plus(path):
        child = path.rstrip("/") + "/" + name
        entry = (stat.kind, stat.size)
        if stat.kind is FileKind.DIR:
            out.update(walk(v, child))
        elif stat.kind is FileKind.SYMLINK:
            entry += (v.readlink(child),)
        else:
            entry += (v.read(child, 0, stat.size + 1),)
        out[child] = entry
    return out


def test_fsynced_names_survive(mount):
    """Names, kinds, the symlink target and both ends of a rename."""
    populate(mount.vfs)
    v = reboot(mount).vfs
    assert [name for name, _ in v.readdir_plus("/")] == ["d", "e"]
    assert v.readdir("/d") == ["kept"]
    assert [(n, s.kind) for n, s in v.readdir_plus("/e")] == [
        ("link", FileKind.SYMLINK),
        ("new-name", FileKind.FILE),
    ]
    assert v.readlink("/e/link") == "/d/kept"
    assert v.stat("/d/kept").kind is FileKind.FILE
    assert not v.exists("/d/old-name")
    # A rename logs the stat it moves, so the renamed file is whole.
    assert v.stat("/e/new-name").size == len(BODY)
    assert v.read("/e/new-name", 0, len(BODY) + 1) == BODY[::-1]


def test_fsynced_write_survives(mount):
    """Size and contents of a file that was created, written, fsynced —
    under conditional logging (§3.3) too, where the log holds the
    create-time stat and the fsynced size must be logged after it."""
    populate(mount.vfs)
    v = reboot(mount).vfs
    assert v.stat("/d/kept").size == len(BODY)
    assert v.read("/d/kept", 0, len(BODY) + 1) == BODY
    assert v.read(v.resolve_symlinks("/e/link"), 0, len(BODY)) == BODY


@pytest.mark.parametrize("spec", MOUNTS)
def test_unsynced_files_vanish_or_are_whole(spec):
    """After the last sync a crash may keep any barrier-respecting part
    of what the device accepted — roll back to a sealed epoch, keep a
    prefix of the open one, tear its last write at a sector — and a
    file comes back absent, empty (created, never written back) or
    whole: never a size without its bytes.  The log is small so that
    unsynced log writes reach the device at all."""
    mount = build(spec, log_size=1 * MIB)
    v = mount.vfs
    v.mkdir("/d")
    v.sync()
    device = mount.device
    device.enable_volatile_cache()
    paths = [f"/d/f{i:02d}" for i in range(90)]
    for i, path in enumerate(paths):
        v.create(path)
        v.write(path, 0, BODY)
        if i % 10 == 9:  # background write-back: no barrier
            v.writeback()
            v.writeback_inodes(force=True)
    records = device.unflushed()
    seqs = tuple(r.seq for r in records)
    assert seqs, "the small log never pushed an unsynced write out"
    plans = [CrashPlan(epoch=e) for e in range(device.sealed_epochs())]
    plans += [CrashPlan(selected=seqs[:n]) for n in range(len(seqs) + 1)]
    sectors = -(-records[-1].length // device.profile.sector)
    plans += [
        CrashPlan(selected=seqs, torn_tail_sectors=n)
        for n in range(1, sectors, max(1, sectors // 6))
    ]
    seen = set()
    for plan in plans:
        rv = mount.crash(plan).vfs
        for path in paths:
            if not rv.exists(path):
                seen.add("absent")
                continue
            size = rv.stat(path).size
            assert size in (0, len(BODY)), (plan.describe(), path, size)
            assert rv.read(path, 0, len(BODY) + 1) == BODY[:size], (
                plan.describe(), path,
            )
            seen.add("whole" if size else "empty")
    assert {"absent", "empty", "whole"} <= seen


def test_second_crash_changes_nothing(mount):
    populate(mount.vfs)
    first = reboot(mount)
    seen = walk(first.vfs)
    assert set(seen) == {"/d", "/d/kept", "/e", "/e/link", "/e/new-name"}
    second = reboot(first)
    assert second.recovered and second.env is not first.env
    assert walk(second.vfs) == seen


def test_recovered_mount_takes_writes_that_survive_the_next_crash(mount):
    populate(mount.vfs)
    first = reboot(mount)
    v = first.vfs
    v.write("/e/new-name", 0, b"second life")
    v.mkdir("/d/sub")
    v.create("/d/sub/born-after-recovery")
    v.unlink("/e/link")
    v.sync()
    v2 = reboot(first).vfs
    assert v2.read("/e/new-name", 0, len(BODY)) == b"second life" + BODY[::-1][11:]
    assert v2.readdir("/d/sub") == ["born-after-recovery"]
    assert v2.readdir("/e") == ["new-name"]


def test_recovered_root_is_not_assumed_empty(mount):
    """A formatted root starts with a known child count of zero; a
    recovered one must not inherit that (+RG trusts it on rmdir)."""
    populate(mount.vfs)
    v = reboot(mount).vfs
    with pytest.raises(FSError, match="ENOTEMPTY"):
        v.rmdir("/")
    assert v.readdir("/") == ["d", "e"]


# ----------------------------------------------------------------------
# Cross-shard rename: the intent protocol seen from the syscall surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [pytest.param(4, id="hash")])
def test_cross_shard_rename_is_atomic_across_every_barrier(shards):
    """Cut a two-phase rename at every barrier it issues — before the
    intent is durable, between the intent and the resolve phase, after
    the destination sync — and re-mount: exactly one of src/dst exists,
    and a survivor that moved carries the bytes."""
    mount = build(("BetrFS v0.6", shards))
    v = mount.vfs
    smap = mount.shard_map
    v.mkdir("/src")
    src = "/src/f"
    dst_dir = next(
        d
        for d in (f"/{c}{i}" for c in "0Aaz" for i in range(16))
        if smap.owner_of_entry(d + "/f") != smap.owner_of_entry(src)
    )
    dst = dst_dir + "/f"
    v.mkdir(dst_dir)
    v.create(src)
    v.write(src, 0, BODY)
    v.sync()
    mount.device.enable_volatile_cache()
    v.rename(src, dst)
    assert mount.backend.cross_renames == 1
    sealed = mount.device.sealed_epochs()
    assert sealed >= 2, "intent sync + destination sync"
    outcomes = []
    for epoch in [*range(sealed), None]:
        rv = mount.crash(CrashPlan(selected=(), epoch=epoch)).vfs
        survivors = [p for p in (src, dst) if rv.exists(p)]
        assert len(survivors) == 1, (epoch, survivors)
        if survivors == [dst]:
            assert rv.stat(dst).size == len(BODY)
            assert rv.read(dst, 0, len(BODY) + 1) == BODY
        outcomes.append(survivors[0])
    # Lost before the intent was durable; rolled forward ever after.
    assert outcomes[0] == src
    assert outcomes[1:] == [dst] * sealed


@pytest.mark.parametrize("shards", [pytest.param(3, id="hash")])
def test_sharded_remount_keeps_class_and_shard_map(shards):
    fresh = build(("BetrFS v0.6", shards))
    recovered = fresh.crash()
    assert type(recovered) is type(fresh)
    assert (recovered.recovered, fresh.recovered) == (True, False)
    assert recovered.shard_map == fresh.shard_map
    assert (recovered.features, recovered.opts) == (fresh.features, fresh.opts)
    assert len(recovered.storages) == shards


# ----------------------------------------------------------------------
# fsck through the mount
# ----------------------------------------------------------------------
def test_fsck_refuses_a_mount_with_no_sfl_layout():
    """Regression: on the ext4-stacked v0.4 the SFL offsets hold
    nothing, and fsck used to answer CLEAN with 0 trees and 0 nodes
    checked."""
    fs = make_betrfs("BetrFS v0.4", MountOptions(scale=1 / 32))
    for i in range(300):
        fs.vfs.create(f"/f{i:03d}")
    fs.vfs.sync()
    fs.env.checkpoint()
    with pytest.raises(FsckError, match="stacked ext4"):
        fsck_mount(fs)


def test_fsck_mount_walks_every_volume():
    fs = build(("BetrFS v0.6", 4))
    populate(fs.vfs)
    fs.env.checkpoint()
    report = fsck_mount(fs)
    assert report.ok, report.render()
    assert report.trees_checked == 2 * 4
    assert report.nodes_checked >= 2 * 4
    # Damage volume 2's newest superblock slot: the merged report names it.
    image = fs.device.crash_image()
    base = fs.storages[2].layout.base
    for slot in (0, 1):
        raw = bytearray(image.store.read(base + slot * 4 * MIB, 64))
        raw[20] ^= 0xFF
        image.store.write(base + slot * 4 * MIB, bytes(raw))
    damaged = fsck_mount(fs, image)
    assert not damaged.ok
    assert all(e.startswith("vol2: ") for e in damaged.errors), damaged.errors


def test_image_of_another_device_is_refused():
    from repro.model.profiles import COMMODITY_HDD

    fs = make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32))
    other = make_betrfs(
        "BetrFS v0.6", MountOptions(scale=1 / 32, profile=COMMODITY_HDD)
    )
    with pytest.raises(ValueError, match="cannot be mounted"):
        fs.remount(other.device.crash_image())
