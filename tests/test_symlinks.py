"""Symbolic-link tests across all file systems."""

import pytest

from repro.baselines import BASELINES
from repro.betrfs.versions import VERSIONS
from repro.harness.runner import make_mount
from repro.vfs.vfs import FSError
from repro.workloads.scale import SMOKE_SCALE
from tests.conftest import reboot

SYSTEMS = ["ext4", "zfs", "BetrFS v0.4", "BetrFS v0.6"]


@pytest.mark.parametrize("system", SYSTEMS)
class TestSymlinks:
    def test_create_and_readlink(self, system):
        v = make_mount(system, SMOKE_SCALE).vfs
        v.create("/target")
        v.symlink("/target", "/link")
        assert v.readlink("/link") == "/target"
        assert v.stat("/link").kind.name == "SYMLINK"

    def test_resolve_and_read_through(self, system):
        mount = make_mount(system, SMOKE_SCALE)
        v = mount.vfs
        v.create("/data")
        v.write("/data", 0, b"through the link")
        v.symlink("/data", "/alias")
        resolved = v.resolve_symlinks("/alias")
        assert v.read(resolved, 0, 16) == b"through the link"

    def test_relative_target_resolution(self, system):
        v = make_mount(system, SMOKE_SCALE).vfs
        v.mkdir("/d")
        v.create("/d/real")
        v.symlink("real", "/d/rel")
        assert v.resolve_symlinks("/d/rel") == "/d/real"

    def test_dangling_symlink(self, system):
        v = make_mount(system, SMOKE_SCALE).vfs
        v.symlink("/nowhere", "/dangling")
        assert v.readlink("/dangling") == "/nowhere"
        assert v.resolve_symlinks("/dangling") == "/nowhere"
        assert not v.exists("/nowhere")

    def test_symlink_loop_detected(self, system):
        v = make_mount(system, SMOKE_SCALE).vfs
        v.symlink("/b", "/a")
        v.symlink("/a", "/b")
        with pytest.raises(FSError) as err:
            v.resolve_symlinks("/a")
        assert "ELOOP" in str(err.value)

    def test_unlink_symlink_keeps_target(self, system):
        v = make_mount(system, SMOKE_SCALE).vfs
        v.create("/keep")
        v.write("/keep", 0, b"safe")
        v.symlink("/keep", "/link")
        v.unlink("/link")
        assert not v.exists("/link")
        assert v.read("/keep", 0, 4) == b"safe"

    def test_readlink_on_regular_file_fails(self, system):
        v = make_mount(system, SMOKE_SCALE).vfs
        v.create("/plain")
        with pytest.raises(FSError):
            v.readlink("/plain")

    def test_symlink_survives_remount(self, system):
        if system not in VERSIONS:
            pytest.skip("remount path is BetrFS-specific")
        mount = make_mount(system, SMOKE_SCALE)
        mount.vfs.symlink("/t", "/persisted")
        mount.vfs.sync()
        v = reboot(mount).vfs
        assert v.readlink("/persisted") == "/t"
        assert v.stat("/persisted").kind.name == "SYMLINK"
