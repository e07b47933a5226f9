"""The persistence contract in syscall terms, on re-mounted images.

Every mount here is crashed and *re-mounted as a file system* — the
one assembler given a crash image instead of a blank device — and all
checks read back through the recovered mount's ``vfs``
(``stat``/``read``/``readlink``/``readdir_plus``), never a bare key
lookup.  Covered: the 9 Table 3 rows and the sharded v0.6 mount with 1
and 4 volumes.
"""

import random

import pytest

from repro.betrfs.filesystem import MountOptions, make_betrfs
from repro.betrfs.versions import VERSIONS
from repro.check.errors import FsckError
from repro.check.fsck import fsck_mount
from repro.core.wal import LogRecordTooLarge
from repro.crashmc.plan import CrashPlan
from repro.crashmc.schedule import enumerate_plans
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


@pytest.mark.parametrize("shards", [0, 2], ids=["plain", "shards2"])
def test_a_crash_during_recovery_recovers_the_same_state(shards):
    """Recovery is log replay plus a checkpoint.  Crash it — at every
    plan of every barrier epoch it seals and of its open epoch — and
    recover again: the namespace and the file bytes equal the first
    recovery's."""
    mount = build(("BetrFS v0.6", shards), log_size=1 * MIB)
    v = mount.vfs
    populate(v)
    # Unsynced ops that reach the image's log with no barrier.
    v.mkdir("/f")
    for i in range(12):
        v.create(f"/f/g{i:02d}")
        v.write(f"/f/g{i:02d}", 0, BODY)
    v.rename("/d/kept", "/f/kept")
    v.rename("/e", "/f/e")
    v.writeback()
    v.writeback_inodes(force=True)
    mount.backend.env.wal.flush(durable=False)
    image = mount.device.crash_image()
    image.enable_volatile_cache()
    first = mount.remount(image)
    assert first.backend.env.recovered_entries > 0
    want = walk(first.vfs)
    assert "/f/e/new-name" in want and "/f/kept" in want
    sealed = image.sealed_epochs()
    assert sealed >= 3, "tree syncs, then the superblock's"
    for epoch in [*range(sealed), None]:
        plans = enumerate_plans(
            image.epoch_records(epoch),
            epoch=epoch,
            sector=image.profile.sector,
            rng=random.Random(0),
        )
        for plan in plans:
            again = mount.remount(image.crash_image(plan))
            assert walk(again.vfs) == want, plan.describe()


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
# Cross-shard rename: one log record, seen from the syscall surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [pytest.param(4, id="hash")])
def test_cross_shard_rename_is_atomic_across_every_barrier(shards):
    """Cut a cross-shard rename and the fsync after it at every crash
    plan of every epoch they touch — torn writes included — and
    re-mount: exactly one of src/dst exists, and a survivor that moved
    carries the bytes.  The rename is one log record, so it issues no
    barrier of its own."""
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
    device = mount.device
    device.enable_volatile_cache()
    v.rename(src, dst)
    assert mount.backend.cross_renames == 1
    assert device.sealed_epochs() == 0, "the rename itself issues no barrier"
    v.fsync(dst)
    sealed = device.sealed_epochs()
    assert sealed >= 1
    outcomes = set()
    for epoch in [*range(sealed), None]:
        plans = enumerate_plans(
            device.epoch_records(epoch),
            epoch=epoch,
            sector=device.profile.sector,
            rng=random.Random(0),
        )
        for plan in plans:
            rv = mount.crash(plan).vfs
            survivors = [p for p in (src, dst) if rv.exists(p)]
            assert len(survivors) == 1, (plan, survivors)
            if survivors == [dst]:
                assert rv.stat(dst).size == len(BODY)
                assert rv.read(dst, 0, len(BODY) + 1) == BODY
            outcomes.add(survivors[0])
    # Some plan loses the log write, and the fsync makes it durable.
    assert outcomes == {src, dst}


# ----------------------------------------------------------------------
# Every rename is one log record: a crash inside one leaves one name
# ----------------------------------------------------------------------
#: Five pages, the last one partial.
FSYNCED = (bytes(range(256)) * 79)[:20_000]

RENAMES = [
    pytest.param(shards, kind, id=f"{mount}-{kind}")
    for shards, mount in ((0, "plain"), (2, "shards2"))
    for kind in ("file", "dir")
]


def fsynced_rename(shards, kind):
    """A v0.6 mount holding ``/a/f`` (:data:`FSYNCED`), the file and
    its directories fsynced, and the rename to make: of that file, or
    of its directory ``/a``, to a name under which the file routes to
    the other volume on a sharded mount.  Returns the mount, ``{src:
    file before, dst: file after}`` and ``(src, dst)``."""
    mount = build(("BetrFS v0.6", shards))
    v = mount.vfs
    smap = getattr(mount, "shard_map", None)
    target = next(
        d
        for d in (f"/{c}{i}" for c in "bz" for i in range(16))
        if smap is None or smap.owner_of_entry(d + "/f") != smap.owner_of_entry("/a/f")
    )
    v.mkdir("/a")
    v.create("/a/f")
    if kind == "file":
        v.mkdir(target)
        src, dst = "/a/f", target + "/f"
    else:
        src, dst = "/a", target
    v.write("/a/f", 0, FSYNCED)
    for path in ("/a/f", "/a", target)[: 3 if kind == "file" else 2]:
        v.fsync(path)
    return mount, {src: "/a/f", dst: target + "/f"}, (src, dst)


def one_name(v, files):
    """Exactly one of the two names exists, and its file reads the
    fsynced bytes; returns that name."""
    names = [name for name in files if v.exists(name)]
    assert len(names) == 1, names
    assert [f for f in files.values() if v.exists(f)] == [files[names[0]]]
    assert v.read(files[names[0]], 0, len(FSYNCED) + 1) == FSYNCED
    return names[0]


@pytest.mark.parametrize("shards,kind", RENAMES)
def test_a_checkpoint_inside_a_rename_leaves_one_name(shards, kind):
    """Land the periodic checkpoint at every point of a rename where it
    can fire (each ``_post_op`` the rename reaches, found by a probe
    run; ``last_checkpoint`` is offset to the midpoint before it), then
    crash before the log's next flush: one name survives, with the
    fsynced bytes.  A rename logged as several records loses this
    whenever the checkpoint lands between two of them."""
    probe, files, (src, dst) = fsynced_rename(shards, kind)
    env = probe.backend.env
    times = [env.clock.now]
    post_op = env._post_op

    def timed():
        times.append(env.clock.now)
        post_op()

    env._post_op = timed
    probe.vfs.rename(src, dst)
    fire_at = sorted(set(times))
    assert len(fire_at) >= 2
    outcomes = set()
    for before, at in zip(fire_at, fire_at[1:]):
        mount, _files, _names = fsynced_rename(shards, kind)
        env = mount.backend.env
        assert env.clock.now == times[0]
        checkpoints = env.checkpoints
        env.last_checkpoint = (before + at) / 2 - env.config.checkpoint_period
        mount.vfs.rename(src, dst)
        assert env.checkpoints == checkpoints + 1, at
        outcomes.add(one_name(mount.crash().vfs, files))
    assert outcomes == {src, dst}


@pytest.mark.parametrize("shards,kind", RENAMES)
def test_a_rename_is_atomic_at_every_crash_plan(shards, kind):
    """Cut a rename and the fsync after it at every crash plan of each
    epoch they seal, torn writes included, and re-mount: one name
    survives, with the fsynced bytes."""
    mount, files, (src, dst) = fsynced_rename(shards, kind)
    device = mount.device
    device.enable_volatile_cache()
    mount.vfs.rename(src, dst)
    mount.vfs.fsync(files[dst])
    sealed = device.sealed_epochs()
    assert sealed >= 1
    outcomes = set()
    for epoch in range(sealed):
        plans = enumerate_plans(
            device.epoch_records(epoch),
            epoch=epoch,
            sector=device.profile.sector,
            rng=random.Random(0),
        )
        for plan in plans:
            outcomes.add(one_name(mount.crash(plan).vfs, files))
    assert outcomes == {src, dst}


@pytest.mark.parametrize(
    "version", [*VERSIONS, "shards2"], ids=[*VERSIONS, "v0.6-shards2"]
)
def test_an_8_mib_file_renames_on_a_4_mib_log(version):
    """The record moves the blocks' keys, not their bytes, so a file
    larger than the whole log renames — across volumes too — and the
    moved file survives a crash."""
    mount = build(("BetrFS v0.6", 2) if version == "shards2" else (version, 0))
    v = mount.vfs
    body = bytes(range(256)) * (8 * MIB // 256)
    v.mkdir("/a")
    v.create("/a/big")
    v.write("/a/big", 0, body)
    v.fsync("/a/big")
    smap = getattr(mount, "shard_map", None)
    dst = next(
        f"/b{i}/big"
        for i in range(16)
        if smap is None or smap.owner_of_entry(f"/b{i}/big") != smap.owner_of_entry("/a/big")
    )
    v.mkdir(dst[:-4])
    v.rename("/a/big", dst)
    if smap is not None:
        assert mount.backend.cross_renames == 1
    v.fsync(dst)
    rv = reboot(mount).vfs
    assert not rv.exists("/a/big")
    assert rv.read(dst, 0, len(body) + 1) == body


def test_a_rename_record_larger_than_the_log_is_refused_untouched():
    """A directory with enough children makes a rename record larger
    than the whole log: it is refused with a typed error before anything
    is logged or any tree changes, and the namespace stays as it was."""
    mount = build(("BetrFS v0.6", 0), log_size=64 * 1024)
    v = mount.vfs
    v.mkdir("/d")
    for i in range(800):
        v.mkdir(f"/d/child-directory-{i:04d}")
    v.sync()
    env = mount.backend.env
    before = (
        env.wal.next_lsn,
        env.wal.entries_appended,
        env.wal._buffer_bytes,
        [(t.stats.inserts, t.stats.deletes, t.stats.range_deletes) for t in env.trees],
    )
    with pytest.raises(LogRecordTooLarge, match="does not fit"):
        v.rename("/d", "/e")
    assert before == (
        env.wal.next_lsn,
        env.wal.entries_appended,
        env.wal._buffer_bytes,
        [(t.stats.inserts, t.stats.deletes, t.stats.range_deletes) for t in env.trees],
    )
    assert v.exists("/d") and not v.exists("/e")
    assert len(v.readdir("/d")) == 800
    rv = reboot(mount).vfs
    assert len(rv.readdir("/d")) == 800 and not rv.exists("/e")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 2(b): the VFS unlinks a rename's destination as a "
    "record of its own, so a checkpoint between it and the rename, then "
    "a crash, leaves the source name and no destination",
)
def test_a_rename_onto_an_existing_name_keeps_the_destination():
    """Rename onto an existing file, a checkpoint landing after the
    destination's unlink and before the rename record, then a crash
    before the log's next flush: POSIX keeps the destination name
    through any crash."""
    mount = build(("BetrFS v0.6", 0))
    v = mount.vfs
    for name, body in (("/src", FSYNCED), ("/dst", FSYNCED[::-1])):
        v.create(name)
        v.write(name, 0, body)
        v.fsync(name)
    unlink = mount.backend.unlink

    def unlink_then_checkpoint(*args):
        unlink(*args)
        # Where the periodic checkpoint lands at the unlink's last op.
        mount.backend.env.checkpoint()

    mount.backend.unlink = unlink_then_checkpoint
    v.rename("/src", "/dst")
    assert v.read("/dst", 0, len(FSYNCED)) == FSYNCED
    assert mount.crash().vfs.exists("/dst")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 2(b): a checkpoint passes the log record of a "
    "conditionally logged create that is not in the tree yet, and "
    "recovery replays only past the checkpoint",
)
def test_a_checkpoint_keeps_a_create_the_log_made_durable():
    """``fsync`` of a file makes the log durable, its directory's
    deferred (conditionally logged, §3.3) create included; a checkpoint
    before that inode is written back must not drop the directory while
    its fsynced child survives."""
    mount = build(("BetrFS v0.6", 0))
    v = mount.vfs
    v.mkdir("/a")
    v.create("/a/f")
    v.write("/a/f", 0, FSYNCED)
    v.fsync("/a/f")
    mount.backend.env.checkpoint()
    rv = mount.crash().vfs
    assert rv.exists("/a/f")
    assert rv.exists("/a")


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
    # Damage the root of volume 2's meta tree: the report names the volume.
    image = fs.device.crash_image()
    meta = fs.env.trees[fs.backend.pairs[2][0]]
    off, _ln = meta.blockman.lookup(meta.root_id)
    at = fs.storages[2].layout.meta_base + off
    raw = bytearray(image.store.read(at, 64))
    raw[20] ^= 0xFF
    image.store.write(at, bytes(raw))
    damaged = fsck_mount(fs, image)
    assert not damaged.ok
    assert all(e.startswith("vol2: meta.db: ") for e in damaged.errors), damaged.errors


def test_image_of_another_device_is_refused():
    from repro.model.profiles import COMMODITY_HDD

    fs = make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 32))
    other = make_betrfs(
        "BetrFS v0.6", MountOptions(scale=1 / 32, profile=COMMODITY_HDD)
    )
    with pytest.raises(ValueError, match="cannot be mounted"):
        fs.remount(other.device.crash_image())
