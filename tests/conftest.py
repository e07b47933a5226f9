"""Shared fixtures for the test suite."""

import functools

import pytest

from repro.check import flow
from repro.check.fsck import fsck_device, fsck_mount
from repro.core.checkpoint import DECODED, SlotVerdict, Superblock, read_superblock
from repro.core.config import BeTreeConfig
from repro.core.env import KVEnv
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.kmem.allocator import KernelAllocator
from repro.model.costs import CostModel
from repro.model.profiles import COMMODITY_SSD, NULL_DEVICE
from repro.storage.sfl import ImageLayout, SimpleFileLayer

MIB = 1 << 20

#: The carve every KV-level environment in the suite is built with;
#: region offsets come from here, never from hard-coded byte values.
LAYOUT = ImageLayout(log_size=8 * MIB, meta_size=64 * MIB)


_load_program = flow.load_program


@functools.lru_cache(maxsize=None)
def real_program() -> flow.Program:
    """The real ``src/repro`` tree, parsed and indexed once per session.

    Analyses only read a ``Program`` (``tests/test_flow.py`` proves a
    shared one gives the reports a private one does), so the real-tree
    self-tests of arch/costflow/conc/durflow all analyze this one.
    It calls the loader :func:`shared_program` patches by its original
    binding, so a first call under that fixture does not recurse."""
    return _load_program()


@pytest.fixture
def shared_program(monkeypatch):
    """Opt-in: ``flow.load_program()`` with no root returns
    :func:`real_program`, so a CLI test does not re-parse and re-index
    the real tree.  Not for tests that count parses or that compare a
    shared ``Program`` against a standalone one."""
    load = flow.load_program

    def load_program(root=None, package="repro"):
        if root is None and package == "repro":
            return real_program()
        return load(root, package)

    monkeypatch.setattr(flow, "load_program", load_program)


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def ssd(clock):
    return BlockDevice(clock, COMMODITY_SSD)


@pytest.fixture
def null_device(clock):
    return BlockDevice(clock, NULL_DEVICE)


@pytest.fixture
def alloc(clock, costs):
    return KernelAllocator(clock, costs)


def small_cfg(**over):
    """Small tree geometry so tests exercise splits and flushes."""
    cfg = BeTreeConfig()
    cfg.node_size = 8192
    cfg.basement_size = 2048
    cfg.buffer_size = 4096
    cfg.fanout = 4
    cfg.cache_bytes = 1 << 20
    for k, v in over.items():
        setattr(cfg, k, v)
    return cfg


@pytest.fixture
def small_config():
    return small_cfg(cache_bytes=512 * 1024)


def recounted_node_bytes(node) -> int:
    """A cached node's bytes counted from what it holds — pairs, pivots,
    message fields — trusting none of the sizes it (or they) keep."""
    if node.is_leaf:
        return sum(b.pair_size(k, v) for b in node.basements for k, v in b.items())
    pivots = sum(map(len, node.pivots)) + 8 * (len(node.pivots) + len(node.children))
    return pivots + sum(m.measure() for m in node.buffer)


def newest_slot(store, base=0):
    """``(device offset, superblock)`` of the newest decodable slot of
    the volume whose superblock region starts at ``base`` in ``store``,
    as recovery reads it."""
    sb, slots = read_superblock(lambda off, length: store.read(base + off, length))
    assert sb is not None, "no decodable superblock slot"
    slot = slots.index(SlotVerdict(DECODED, sb.generation))
    return base + slot * Superblock.SLOT_SIZE, sb


def tear_newest_slot(store, base=0):
    """Zero the back half of the newest slot's frame, as a crash
    mid-write leaves it: the payload CRC and the completion stamp are
    gone, so recovery falls back a generation.  Returns the torn
    superblock."""
    off, sb = newest_slot(store, base)
    frame = sb.frame()
    assert store.read(off, len(frame)) == frame
    keep = len(frame) // 2
    store.write(off + keep, bytes(len(frame) - keep))
    return sb


def drop_node_cache(env):
    """What the northbound's drop_caches does to the tree."""
    env.checkpoint()
    for owner, node in list(env.cache.all_nodes()):
        owner.release_node_memory(node)
    env.cache.clear()


def build_env(device, config, costs=None, make=KVEnv, **kwargs):
    """A bare KV environment carved as :data:`LAYOUT` on ``device``:
    fresh, or (``make=KVEnv.open``) recovered from what it holds."""
    costs = costs or CostModel()
    alloc = KernelAllocator(device.clock, costs)
    storage = SimpleFileLayer(
        device, costs, log_size=LAYOUT.log_size, meta_size=LAYOUT.meta_size
    )
    kwargs.setdefault("log_size", LAYOUT.log_size)
    kwargs.setdefault("meta_size", LAYOUT.meta_size)
    kwargs.setdefault("data_size", 256 * MIB)
    return make(storage, device.clock, costs, alloc, config, **kwargs)


def make_env(cfg=None, **kwargs):
    """A fresh environment on its own SSD; returns ``(env, device)``."""
    device = BlockDevice(SimClock(), COMMODITY_SSD)
    return build_env(device, cfg or small_cfg(), **kwargs), device


def reopen(device, cfg=None, fsck=True, **kwargs):
    """Pull the plug under a KV-level test: the environment recovered
    from a crash image of ``device`` (mount-level tests reboot with
    ``mount.crash()`` instead)."""
    image = device.crash_image()
    if fsck:
        # Every recovery in the suite must also pass the offline
        # checker: "recovers" means "recovers from a sane image".
        fsck_device(
            image, log_size=LAYOUT.log_size, meta_size=LAYOUT.meta_size
        ).raise_if_errors()
    return build_env(image, cfg or small_cfg(), make=KVEnv.open, **kwargs)


def reboot(mount, plan=None):
    """Pull the plug on a mount: the mount recovered from a crash image
    of its device, which must fsck clean first (the ext4-stacked
    variants have no SFL layout for fsck to walk)."""
    image = mount.device.crash_image(plan)
    if mount.features.use_sfl:
        fsck_mount(mount, image).raise_if_errors()
    return mount.remount(image)


@pytest.fixture
def env(ssd, small_config):
    return build_env(ssd, small_config)


@pytest.fixture
def fast_env(null_device, small_config):
    return build_env(null_device, small_config)
