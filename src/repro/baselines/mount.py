"""Mount assembly for baseline file systems."""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import BaselineFS
from repro.baselines.params import BASELINES
from repro.betrfs.filesystem import MountOptions
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.obs import scope_for_mount
from repro.vfs.vfs import VFS


class BaselineMount:
    """One mounted baseline file system (same facade as BetrFS)."""

    def __init__(self, name: str, opts: Optional[MountOptions] = None) -> None:
        if name not in BASELINES:
            raise KeyError(
                f"unknown baseline {name!r}; choose from {list(BASELINES)}"
            )
        self.name = name
        self.opts = opts or MountOptions()
        self.clock = SimClock()
        self.costs = self.opts.costs
        self.obs = scope_for_mount(self.name, self.clock, self)
        self.device = BlockDevice(self.clock, self.opts.profile, obs=self.obs)
        self.backend = BaselineFS(self.device, self.costs, BASELINES[name])
        self.obs.register_object("storage.backend", self.backend, layer="storage")
        self.vfs = VFS(
            self.backend,
            self.clock,
            self.costs,
            page_cache_bytes=self.opts.page_cache_bytes,
            dirty_limit_bytes=self.opts.dirty_limit_bytes,
            obs=self.obs,
        )

    def sync(self) -> None:
        self.vfs.sync()

    def drop_caches(self) -> None:
        self.vfs.drop_caches()


def make_baseline(name: str, opts: Optional[MountOptions] = None) -> BaselineMount:
    """Build a simulated mount of one comparison file system."""
    return BaselineMount(name, opts)
