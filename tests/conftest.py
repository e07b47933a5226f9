"""Shared fixtures for the test suite."""

import functools

import pytest

from repro.check import flow
from repro.core.config import BeTreeConfig
from repro.core.env import KVEnv
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.kmem.allocator import KernelAllocator
from repro.model.costs import CostModel
from repro.model.profiles import COMMODITY_SSD, NULL_DEVICE
from repro.storage.sfl import SimpleFileLayer

MIB = 1 << 20


@functools.lru_cache(maxsize=None)
def real_program() -> flow.Program:
    """The real ``src/repro`` tree, parsed and indexed once per session.

    Analyses only read a ``Program`` (``tests/test_flow.py`` proves a
    shared one gives the reports a private one does), so the real-tree
    self-tests of arch/costflow/conc/durflow all analyze this one."""
    return flow.load_program()


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


@pytest.fixture
def small_config():
    """Small tree geometry so tests exercise splits and flushes."""
    cfg = BeTreeConfig()
    cfg.node_size = 8192
    cfg.basement_size = 2048
    cfg.buffer_size = 4096
    cfg.fanout = 4
    cfg.cache_bytes = 512 * 1024
    return cfg


def recounted_node_bytes(node) -> int:
    """A cached node's bytes counted from what it holds — pairs, pivots,
    message fields — trusting none of the sizes it (or they) keep."""
    if node.is_leaf:
        return sum(b.pair_size(k, v) for b in node.basements for k, v in b.items())
    pivots = sum(map(len, node.pivots)) + 8 * (len(node.pivots) + len(node.children))
    return pivots + sum(m.measure() for m in node.buffer)


def build_env(device, config, costs=None, **kwargs):
    costs = costs or CostModel()
    alloc = KernelAllocator(device.clock, costs)
    storage = SimpleFileLayer(device, costs, log_size=8 * MIB, meta_size=64 * MIB)
    kwargs.setdefault("log_size", 8 * MIB)
    kwargs.setdefault("meta_size", 64 * MIB)
    kwargs.setdefault("data_size", 256 * MIB)
    return KVEnv(storage, device.clock, costs, alloc, config, **kwargs)


@pytest.fixture
def env(ssd, small_config):
    return build_env(ssd, small_config)


@pytest.fixture
def fast_env(null_device, small_config):
    return build_env(null_device, small_config)
