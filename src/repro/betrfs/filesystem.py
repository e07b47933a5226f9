"""Assembly of a complete simulated BetrFS mount.

``make_betrfs("BetrFS v0.6")`` wires together the device, allocator,
southbound substrate, key-value environment, northbound layer, and the
VFS — honouring every feature flag of the requested variant — and
returns a :class:`BetrFS` handle whose ``vfs`` attribute is the
syscall interface workloads drive.  The same assembly mounts a crash
image: :meth:`BetrFS.crash` pulls the plug and returns the mount
recovered from what reached the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.betrfs.northbound import BetrFSNorthbound
from repro.betrfs.versions import VERSIONS, BetrFSFeatures
from repro.core.config import BeTreeConfig
from repro.core.env import KVEnv
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.kmem.allocator import KernelAllocator
from repro.kmem.coop import CooperativeAllocator
from repro.model.costs import CostModel
from repro.model.profiles import COMMODITY_SSD, DeviceProfile
from repro.obs import scope_for_mount
from repro.storage.ext4sim import Ext4Southbound
from repro.storage.filelayer import Southbound
from repro.storage.sfl import SUPERBLOCK_SIZE, SimpleFileLayer
from repro.vfs.vfs import VFS

MIB = 1024 * 1024


@dataclass
class MountOptions:
    """Sizing knobs for one simulated mount.

    Benchmarks scale the tree geometry and caches down together with
    their workloads so tree depth and flush behaviour stay
    representative while the simulation runs quickly.
    """

    profile: DeviceProfile = COMMODITY_SSD
    #: Geometry scale factor applied to the paper's node sizes.
    scale: float = 1.0 / 16.0
    page_cache_bytes: int = 128 * MIB
    dirty_limit_bytes: int = 32 * MIB
    log_size: int = 32 * MIB
    meta_size: int = 512 * MIB
    data_size: int = 8192 * MIB
    #: Override for the node-cache budget (None = geometry-scaled).
    tree_cache_bytes: Optional[int] = None
    #: Raw BeTreeConfig attribute overrides applied after scaling
    #: (ablation studies: {"pacman": False}, {"compression": True}, ...).
    config_tweaks: Optional[dict] = None
    costs: CostModel = field(default_factory=CostModel)


class BetrFS:
    """One mounted simulated BetrFS instance.

    The only mount assembler: ``volumes`` SFL slots are carved from
    the device, each with its own southbound, Bε-tree environment and
    northbound, and :meth:`_route` decides what the VFS sits on.  One
    volume (every Table 3 variant) spans the whole device and is wired
    straight into the VFS; ``repro.shard`` overrides :meth:`_route`
    with its router over several.

    Two entries, one carve: without ``image`` the mount builds a blank
    device and *formats* it (fresh environments, root directory
    entries); with ``image`` — a :meth:`BlockDevice.crash_image` of a
    mount assembled from the same ``features``/``opts``/``volumes`` —
    it takes the image's device and clock and *recovers* every volume
    (superblock, log replay) instead.  All geometry comes from
    ``opts`` either way; nothing is stored on the device but the
    volumes themselves.
    """

    def __init__(
        self,
        features: BetrFSFeatures,
        opts: Optional[MountOptions] = None,
        volumes: int = 1,
        image: Optional[BlockDevice] = None,
    ) -> None:
        self.features = features
        self.opts = opts or MountOptions()
        self.name = features.name
        #: Whether this mount recovered a crash image (vs. formatted a
        #: blank device).
        self.recovered = image is not None
        if image is None:
            image = BlockDevice(SimClock(), self.opts.profile)
        elif image.profile != self.opts.profile:
            raise ValueError(
                f"an image of a {image.profile.name!r} device cannot be "
                f"mounted with {self.opts.profile.name!r} options"
            )
        self.device = image
        self.clock = image.clock
        self.costs = self.opts.costs
        #: Observability scope: registered with the active session when
        #: one is installed (repro.obs.session), standalone otherwise.
        self.obs = scope_for_mount(self.name, self.clock, self)
        self.device.attach_obs(self.obs)
        if features.coop_memory:
            self.alloc: KernelAllocator = CooperativeAllocator(
                self.clock, self.costs, obs=self.obs
            )
        else:
            self.alloc = KernelAllocator(self.clock, self.costs, obs=self.obs)
        self.config = BeTreeConfig(
            page_sharing=features.page_sharing,
            lazy_apply_on_query=features.lazy_apply_on_query,
            tree_readahead=features.use_sfl,
        ).scaled(self.opts.scale)
        if self.opts.tree_cache_bytes is not None:
            self.config.cache_bytes = self.opts.tree_cache_bytes
        if self.opts.config_tweaks:
            for attr, value in self.opts.config_tweaks.items():
                if not hasattr(self.config, attr):
                    raise AttributeError(f"unknown BeTreeConfig field {attr!r}")
                setattr(self.config, attr, value)
        #: Bytes of device each volume slot owns (slot i starts at
        #: ``i * volume_bytes``).
        self.volume_bytes = self.opts.profile.capacity // volumes
        data_size = self.opts.data_size
        if features.use_sfl:
            fixed = SUPERBLOCK_SIZE + self.opts.log_size + self.opts.meta_size
            if self.volume_bytes <= fixed:
                raise ValueError(
                    f"{volumes} volume slots of {self.volume_bytes} bytes "
                    f"cannot hold the {fixed}-byte fixed regions"
                )
            data_size = min(data_size, self.volume_bytes - fixed)
        self.storages: List[Southbound] = []
        open_env = KVEnv.open if self.recovered else KVEnv
        envs: List[KVEnv] = []
        backends: List[BetrFSNorthbound] = []
        for i in range(volumes):
            if features.use_sfl:
                storage: Southbound = SimpleFileLayer(
                    self.device,
                    self.costs,
                    log_size=self.opts.log_size,
                    meta_size=self.opts.meta_size,
                    base=i * self.volume_bytes,
                    capacity=(i + 1) * self.volume_bytes,
                )
            else:
                storage = Ext4Southbound(self.device, self.costs)
            self.storages.append(storage)
            self.obs.register_object(
                "storage.southbound" if volumes == 1
                else f"storage.southbound.{i}",
                storage,
                layer="storage",
            )
            # Only volume 0 reports to obs: per-env instrumentation uses
            # fixed metric names, and an unobserved env pays nothing.
            env = open_env(
                storage,
                self.clock,
                self.costs,
                self.alloc,
                self.config,
                log_size=self.opts.log_size,
                meta_size=self.opts.meta_size,
                data_size=data_size,
                # The v0.6 log engine (part of the SFL consolidation,
                # §3.1) elides full data pages from the log; the v0.4
                # engine logged everything.
                log_page_values=not features.use_sfl,
                obs=self.obs if i == 0 else None,
            )
            envs.append(env)
            backend = BetrFSNorthbound(env, features)
            if not self.recovered:
                backend.format()
            backends.append(backend)
        self.env, self.backend = self._route(envs, backends)
        self.vfs = VFS(
            self.backend,
            self.clock,
            self.costs,
            page_cache_bytes=self.opts.page_cache_bytes,
            dirty_limit_bytes=self.opts.dirty_limit_bytes,
            obs=self.obs,
        )
        if self.recovered:
            # The VFS primes "/" as a known-empty directory, which only a
            # formatted root is; a recovered one resolves from its tree.
            self.vfs.dcache.clear_clean()
        if envs[0].san is not None:
            envs[0].san.watch_pagecache(self.vfs.pages)

    def _route(self, envs: List[KVEnv], backends: List[BetrFSNorthbound]):
        """Mount the lone volume directly, no router in between: returns
        the ``(env, backend)`` pair the VFS sits on."""
        (env,), (backend,) = envs, backends
        #: The one southbound (a multi-volume mount has only ``storages``).
        self.storage = env.storage
        return env, backend

    # ------------------------------------------------------------------
    def remount(self, image: BlockDevice) -> "BetrFS":
        """This mount — class, features, options — recovered from
        ``image``, a crash image of its device."""
        return BetrFS(self.features, self.opts, image=image)

    def crash(self, plan=None) -> "BetrFS":
        """Pull the plug and reboot: the mount recovered from
        ``device.crash_image(plan)`` (no plan: everything the device
        accepted survives; see :mod:`repro.crashmc.plan`).  This mount
        is left untouched."""
        return self.remount(self.device.crash_image(plan))

    def sync(self) -> None:
        self.vfs.sync()

    def drop_caches(self) -> None:
        self.vfs.drop_caches()

    def io_summary(self) -> str:
        s = self.device.stats
        return (
            f"{self.name}: {s.reads} reads ({s.bytes_read >> 20} MiB), "
            f"{s.writes} writes ({s.bytes_written >> 20} MiB), "
            f"{s.flushes} flushes"
        )


def variant(version: str) -> BetrFSFeatures:
    """Feature flags of a named Table 3 variant."""
    if version not in VERSIONS:
        raise KeyError(
            f"unknown BetrFS version {version!r}; choose from {list(VERSIONS)}"
        )
    return VERSIONS[version]


def make_betrfs(
    version: str = "BetrFS v0.6", opts: Optional[MountOptions] = None
) -> BetrFS:
    """Build a simulated BetrFS mount for a named Table 3 variant."""
    return BetrFS(variant(version), opts)
