"""Unit tests for the observability subsystem (repro.obs)."""

import gc
import json
import math
import weakref

import pytest

from repro.betrfs.filesystem import MountOptions
from repro.device.clock import SimClock
from repro.harness.runner import make_mount
from repro.model.profiles import COMMODITY_SSD_SCALED
from repro.obs import MountScope, Observability, session
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.prof import wall_ns
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.sched import Scheduler
from repro.shard.mount import make_sharded_betrfs
from repro.workloads.scale import SMOKE_SCALE


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_counter_get_or_create_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("ops", layer="vfs")
    b = reg.counter("ops", layer="vfs")
    c = reg.counter("ops", layer="tree")
    assert a is b
    assert a is not c
    a.inc()
    a.inc(4)
    assert a.value == 5
    assert c.value == 0
    assert reg.find("ops", layer="vfs") is a


def test_gauge_callback():
    reg = MetricsRegistry()
    box = {"v": 0}
    g = reg.gauge("depth", layer="tree", fn=lambda: box["v"])
    box["v"] = 7
    assert g.value == 7
    assert g.snapshot()["value"] == 7


def test_latency_percentiles_on_known_distribution():
    h = Histogram.latency("lat")
    # 100 samples spread uniformly over [1ms, 100ms].
    samples = [i * 1e-3 for i in range(1, 101)]
    for s in samples:
        h.observe(s)
    assert h.count == 100
    assert math.isclose(h.sum, sum(samples))
    p50 = h.percentile(50)
    p95 = h.percentile(95)
    p99 = h.percentile(99)
    # Interpolated estimates must land within the containing bucket
    # (1-2-5 series), i.e. within a factor ~2.5 of the true value, and
    # be ordered.
    assert 0.02 <= p50 <= 0.1
    assert 0.05 <= p95 <= 0.1
    assert p50 <= p95 <= p99 <= 0.1
    # Clamped to the observed extremes.
    assert h.percentile(0) >= h.min
    assert h.percentile(100) == h.max


def test_latency_percentile_single_value():
    h = Histogram.latency("lat")
    h.observe(0.003)
    for q in (50, 95, 99):
        assert h.percentile(q) == 0.003
    empty = Histogram.latency("empty")
    assert empty.percentile(50) is None


def test_log2_histogram_bucketing():
    h = Histogram.log2("sizes")
    for v in (3, 4, 5):
        h.observe(v)
    # Bucket b covers (b/2, b]: 3 and 4 land in 4; 5 lands in 8.
    assert dict(h.buckets()) == {4: 2, 8: 1}
    assert h.min == 3 and h.max == 5


def test_object_snapshot_registration():
    class Stats:
        def __init__(self):
            self.hits = 3
            self.misses = 1
            self.ratio = 0.75
            self.name = "not numeric"
            self._private = 9

    reg = MetricsRegistry()
    reg.register_object("cache", Stats(), layer="cache")
    snap = reg.collect()["objects"]["cache"]
    assert snap["hits"] == 3 and snap["misses"] == 1
    assert snap["ratio"] == 0.75
    assert "name" not in snap and "_private" not in snap
    assert snap["_layer"] == "cache"


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_span_nesting_and_durations():
    clock = SimClock()
    tracer = SpanTracer(clock)
    outer = tracer.begin("vfs.write", "vfs")
    clock.cpu(0.001)
    inner = tracer.begin("tree.flush", "tree")
    clock.cpu(0.002)
    tracer.end(inner)
    clock.cpu(0.003)
    tracer.end(outer, bytes=4096)

    assert len(tracer.spans) == 2
    inner_s, outer_s = tracer.spans
    assert inner_s.depth == 1 and outer_s.depth == 0
    assert inner_s.path == "vfs.write;tree.flush"
    assert outer_s.path == "vfs.write"
    assert math.isclose(inner_s.duration, 0.002)
    assert math.isclose(outer_s.duration, 0.006)
    assert math.isclose(outer_s.cpu, 0.006)
    assert outer_s.args == {"bytes": 4096}


def test_span_context_manager_and_flame_summary():
    clock = SimClock()
    tracer = SpanTracer(clock)
    for _ in range(3):
        with tracer.span("op", "test"):
            clock.cpu(0.01)
            with tracer.span("child", "test"):
                clock.cpu(0.02)
    text = tracer.flame_summary()
    assert "op;child" in text
    lines = {ln.split()[-1]: ln.split() for ln in text.splitlines()[1:]}
    assert lines["op"][0] == "3"
    # Parent self time excludes the child's duration.
    assert math.isclose(float(lines["op"][2]), 0.03, abs_tol=1e-9)
    assert math.isclose(float(lines["op;child"][1]), 0.06, abs_tol=1e-9)


def test_chrome_trace_json_roundtrip():
    clock = SimClock()
    tracer = SpanTracer(clock)
    with tracer.span("vfs.read", "vfs"):
        clock.cpu(0.001)
    tracer.event("dev.read", "device", 0.0, 0.0005, bytes=4096)
    events = tracer.chrome_events(pid=3)
    doc = json.loads(json.dumps({"traceEvents": events}))
    assert len(doc["traceEvents"]) == 2
    for e in doc["traceEvents"]:
        assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert e["ph"] == "X"
        assert e["pid"] == 3
    by_name = {e["name"]: e for e in doc["traceEvents"]}
    # ts/dur are microseconds of simulated time.
    assert math.isclose(by_name["vfs.read"]["dur"], 1000.0)
    assert by_name["vfs.read"]["tid"] == 0
    assert by_name["dev.read"]["tid"] == 1
    assert by_name["dev.read"]["args"]["bytes"] == 4096


def test_tracer_drops_past_max_events():
    clock = SimClock()
    tracer = SpanTracer(clock, max_events=2)
    for _ in range(5):
        with tracer.span("op", "t"):
            pass
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3
    assert "dropped 3" in tracer.flame_summary()


# ----------------------------------------------------------------------
# Wiring: no-op default, session collection
# ----------------------------------------------------------------------
def test_default_mount_tracer_is_noop():
    mount = make_mount("BetrFS v0.6", SMOKE_SCALE)
    assert mount.obs.tracer is NULL_TRACER
    assert mount.obs.tracer.enabled is False


def test_session_collects_mounts_and_traces():
    obs = Observability(tracing=True)
    with session(obs):
        mount = make_mount("BetrFS v0.6", SMOKE_SCALE)
        mount.vfs.create("/f")
        mount.vfs.write("/f", 0, b"x" * 8192)
        mount.vfs.sync()
    assert [s.name for s in obs.scopes] == ["BetrFS v0.6"]
    assert mount.obs is obs.scopes[0]
    assert isinstance(mount.obs.tracer, SpanTracer)
    doc = obs.chrome_trace()
    names = {e["name"] for e in doc["traceEvents"]}
    assert "vfs.write" in names
    assert "process_name" in names  # metadata events present
    metrics = obs.metrics()
    assert metrics["mounts"][0]["mount"] == "BetrFS v0.6"
    assert "device.io" in metrics["mounts"][0]["objects"]
    # Mounts created outside the session get standalone scopes.
    outside = make_mount("ext4", SMOKE_SCALE)
    assert outside.obs not in obs.scopes
    assert outside.obs.tracer is NULL_TRACER


def _sharded_mount():
    return make_sharded_betrfs(
        "BetrFS v0.6", MountOptions(profile=COMMODITY_SSD_SCALED), shards=4
    )


def _scheduled_mount():
    """A mount one scheduler session has run on; the scheduler (whose
    gauges the mount's scope holds) is dropped with it."""
    mount = make_mount("BetrFS v0.6", SMOKE_SCALE)
    sched = Scheduler(mount, seed=0)

    def script(ctx):
        yield from ctx.run(mount.vfs.create, "/g")
        ctx.op_done()

    sched.spawn("solo", script)
    sched.run()
    return mount


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_mount("BetrFS v0.6", SMOKE_SCALE),
        lambda: make_mount("ext4", SMOKE_SCALE),
        _sharded_mount,
        _scheduled_mount,
    ],
    ids=["betrfs", "baseline", "shard4", "scheduled"],
)
def test_session_lets_go_of_a_dropped_mount(build):
    """A session keeps a dropped mount's numbers, not its objects: the
    device, caches and stats die with the mount, and the frozen scope
    collects and renders what it did while the mount lived."""
    obs = Observability(tracing=True)
    with session(obs):
        mount = build()
        mount.vfs.create("/f")
        mount.vfs.write("/f", 0, b"x" * 8192)
        mount.vfs.sync()
    live_metrics = json.dumps(obs.metrics())
    live_stats = obs.render_stats()
    held = [weakref.ref(obj) for _name, _layer, obj in mount.obs.registry._objects]
    device = weakref.ref(mount.device)
    del mount
    gc.collect()
    assert device() is None
    assert all(ref() is None for ref in held)
    assert json.dumps(obs.metrics()) == live_metrics
    assert obs.render_stats() == live_stats


def test_scope_stats_render():
    scope = MountScope("m", SimClock())
    hist = scope.latency("vfs.read_latency", layer="vfs")
    hist.observe(0.001)
    text = scope.render_stats()
    assert "vfs.read_latency" in text
    assert "m" in text


# ----------------------------------------------------------------------
# The wall-clock provider (the harness banner's)
# ----------------------------------------------------------------------
def test_wall_ns_is_monotonic():
    a = wall_ns()
    b = wall_ns()
    assert b >= a


# ----------------------------------------------------------------------
# Purity: tracing changes nothing simulated
# ----------------------------------------------------------------------
def _plain_tokubench():
    """tokubench on a plain mount, then the syscalls it does not make:
    device sha256 and simulated seconds."""
    from repro.harness.mt import device_sha256
    from repro.workloads.tokubench import tokubench

    mount = make_mount("BetrFS v0.6", SMOKE_SCALE)
    tokubench(mount, SMOKE_SCALE)
    vfs = mount.vfs
    vfs.mkdir("/spare")
    vfs.symlink("/spare", "/link")
    vfs.stat("/link")
    vfs.readdir_plus("/")
    vfs.unlink("/link")
    vfs.rmdir("/spare")
    mount.sync()
    return json.dumps([device_sha256(mount.device), mount.clock.now])


def _mt(shards: int):
    """8 scheduled sessions, seed 7: the ``harness mt`` summary JSON."""
    from repro.harness.mt import run_mt, to_json

    return lambda: to_json(run_mt(SMOKE_SCALE, sessions=8, seed=7, shards=shards))


def _spanned_names():
    """Every span name a ``SPANS`` table declares."""
    from repro.betrfs.northbound import BetrFSNorthbound
    from repro.core.env import KVEnv
    from repro.core.tree import BeTree
    from repro.core.wal import WriteAheadLog
    from repro.vfs.vfs import VFS

    return {
        spec[0]
        for cls in (VFS, BetrFSNorthbound, KVEnv, WriteAheadLog, BeTree)
        for spec in cls.SPANS.values()
    }


_PURITY_RUNS = {"plain": _plain_tokubench, "mt": _mt(0), "mt-shard4": _mt(4)}


@pytest.fixture(scope="module")
def purity_runs():
    """Each run untraced and traced: both results and the span names
    the traced one recorded."""
    out = {}
    for run, produce in _PURITY_RUNS.items():
        base = produce()
        obs = Observability(tracing=True)
        with session(obs):
            traced = produce()
        names = {e["name"] for e in obs.chrome_trace()["traceEvents"] if e["ph"] == "X"}
        out[run] = (base, traced, names)
    return out


@pytest.mark.parametrize("run", list(_PURITY_RUNS))
def test_tracing_spans_are_pure_observers(purity_runs, run):
    """Acceptance: tracing changes neither device bytes nor simulated
    time, on a plain mount and under 8 scheduled sessions (unsharded
    and on 4 shards)."""
    base, traced, _names = purity_runs[run]
    assert base == traced


def test_every_spans_table_entry_is_traced(purity_runs):
    """Every span a ``SPANS`` table declares (the VFS syscalls among
    them) shows up in at least one of the purity runs' traces."""
    traced = set().union(*(names for _base, _traced, names in purity_runs.values()))
    assert _spanned_names() - traced == set()


@pytest.mark.parametrize("tracing", [False, True])
def test_a_scope_wraps_spanned_methods_only_when_it_traces(tracing):
    """A non-tracing scope installs only the latency wrappers (the VFS
    syscalls and the point query); a tracing one wraps every method of
    every ``SPANS`` table too."""
    with session(Observability(tracing=tracing)):
        mount = make_mount("BetrFS v0.6", SMOKE_SCALE)
    env = mount.env
    timed = {id(mount.vfs): set(mount.vfs.SPANS), id(env.meta): {"get"}}
    for obj in (mount.vfs, mount.backend, env, env.wal, env.meta):
        wrapped = set(vars(obj)) & set(obj.SPANS)
        want = set(obj.SPANS) if tracing else timed.get(id(obj), set())
        assert wrapped == want, type(obj).__name__
