"""Cross-stack integration tests.

Every file system (all BetrFS variants and all baselines) is driven
through the same scripted workload and must externalize identical file
contents — the performance models may differ, the semantics may not.
"""

import random

import pytest

from repro.baselines import BASELINES
from repro.betrfs.filesystem import MountOptions
from repro.betrfs.versions import VERSIONS
from repro.harness.runner import make_mount
from repro.workloads.scale import SMOKE_SCALE
from tests.conftest import reboot

ALL_SYSTEMS = sorted(BASELINES) + [v for v in VERSIONS if v != "BetrFS v0.6"]


def scripted_workload(mount, seed=3):
    """A deterministic mixed workload; returns {path: content}."""
    v = mount.vfs
    rng = random.Random(seed)
    model = {}
    v.mkdir("/w")
    for d in range(3):
        v.mkdir(f"/w/d{d}")
    for i in range(40):
        path = f"/w/d{i % 3}/f{i:03d}"
        v.create(path)
        body = bytes([i % 251]) * rng.randint(10, 9000)
        v.write(path, 0, body)
        model[path] = body
    # Overwrites, extensions, small patches.
    for i in range(0, 40, 5):
        path = f"/w/d{i % 3}/f{i:03d}"
        v.write(path, 5, b"PATCH")
        body = model[path]
        if len(body) < 10:
            body = body + b"\x00" * (10 - len(body))
        model[path] = body[:5] + b"PATCH" + body[10:]
    # Deletions.
    for i in range(1, 40, 7):
        path = f"/w/d{i % 3}/f{i:03d}"
        v.unlink(path)
        del model[path]
    # Renames.
    for i in range(2, 40, 11):
        path = f"/w/d{i % 3}/f{i:03d}"
        if path in model:
            dst = path + ".renamed"
            v.rename(path, dst)
            model[dst] = model.pop(path)
    v.sync()
    return model


def read_back(mount, model):
    v = mount.vfs
    got = {}
    for path, body in model.items():
        got[path] = v.read(path, 0, len(body) + 64)
    return got


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_scripted_workload_externalizes_identical_state(system):
    mount = make_mount(system, SMOKE_SCALE)
    model = scripted_workload(mount)
    mount.drop_caches()
    got = read_back(mount, model)
    assert got == model
    # Directory listings agree with the model.
    listed = set()
    for d in range(3):
        for name in mount.vfs.readdir(f"/w/d{d}"):
            listed.add(f"/w/d{d}/{name}")
    assert listed == set(model)


@pytest.mark.parametrize(
    "version", [v for v in VERSIONS if v != "BetrFS v0.6"]
)
def test_betrfs_variants_survive_crash(version):
    """Write through the full stack, crash the device, re-mount the
    image (fsck-clean where there is an SFL layout to walk; the stacked
    v0.4 substrate re-allocates its files in creation order, so they
    land at the original offsets), and read back through the VFS."""
    mount = make_mount(version, SMOKE_SCALE)
    model = scripted_workload(mount)
    recovered = reboot(mount)
    v = recovered.vfs
    listed = {
        f"/w/d{d}/{name}" for d in range(3) for name in v.readdir(f"/w/d{d}")
    }
    assert listed == set(model)
    assert read_back(recovered, model) == model


def test_bytes_conserved_across_layers():
    """What each layer reports writing must equal what the layer below
    received: WAL == log file, trees == node files, and the device's
    (pre-sector-rounding) total == the sum over southbound files."""
    mount = make_mount("BetrFS v0.6", SMOKE_SCALE)
    scripted_workload(mount)
    mount.env.checkpoint()  # force node write-back so trees report bytes
    env, storage, device = mount.env, mount.storage, mount.device

    assert env.wal.bytes_flushed == storage.file_bytes_written["log"]
    tree_bytes = sum(t.stats.bytes_node_written for t in env.trees)
    assert tree_bytes > 0
    assert tree_bytes == (
        storage.file_bytes_written["meta.db"]
        + storage.file_bytes_written["data.db"]
    )
    assert device.stats.raw_bytes_written == sum(
        storage.file_bytes_written.values()
    )
    # Sector rounding only ever adds bytes.
    assert device.stats.bytes_written >= device.stats.raw_bytes_written


def test_simulated_time_accumulates_everywhere():
    for system in ("ext4", "BetrFS v0.6"):
        mount = make_mount(system, SMOKE_SCALE)
        scripted_workload(mount)
        assert mount.clock.now > 0
        assert mount.device.stats.bytes_written > 0
