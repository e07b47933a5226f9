"""Replay a trace on a fresh mount and measure it on both clocks.

One :func:`run_rep` is one repetition: build the workload's mount
through ``MountOptions`` directly, replay the setup ops (untimed),
then the timed ops — sequentially, or as sessions under
``repro.sched.Scheduler`` — stamping ``perf_counter_ns`` around every
VFS call and ``mount.clock.now`` around every client op, and checking
every result against the shadow model.  Only the public mount API is
driven; nothing in ``repro.workloads`` is used.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines.mount import make_baseline
from repro.betrfs.filesystem import MountOptions, make_betrfs
from repro.core.env import KVEnv, META
from repro.core.keys import meta_key
from repro.harness.mt import device_sha256
from repro.kmem.allocator import KernelAllocator
from repro.model.costs import CostModel
from repro.model.profiles import COMMODITY_SSD_SCALED
from repro.sched import Scheduler
from repro.shard.mount import make_sharded_betrfs
from repro.storage.sfl import SimpleFileLayer

from perfbench.calibrate import kernel_seconds, speed
from perfbench.shadow import Shadow
from perfbench.trace import layer_objects, sched_objects
from perfbench.traces import MIB, Op, Trace
from perfbench.workloads import Workload

#: Tracebacks of failed calls printed per rep before going quiet.
MAX_REPORTED_ERRORS = 5
PAGE_CACHE_BYTES = 13 * MIB


def build_mount(kind: str, tree_cache_bytes: int):
    """The fixed benchmark mount: BetrFS v0.6 (``betrfs``), the same on
    four hash shards (``shard4``) or the ext4 baseline model (``ext4``),
    on the scaled commodity SSD, geometry 1/16, page cache 13 MiB, dirty
    limit 4 MiB."""
    opts = MountOptions(
        profile=COMMODITY_SSD_SCALED,
        scale=1.0 / 16.0,
        page_cache_bytes=PAGE_CACHE_BYTES,
        dirty_limit_bytes=4 * MIB,
        tree_cache_bytes=tree_cache_bytes,
    )
    if kind == "betrfs":
        return make_betrfs("BetrFS v0.6", opts)
    if kind == "shard4":
        return make_sharded_betrfs("BetrFS v0.6", opts, shards=4, mode="hash")
    if kind == "ext4":
        return make_baseline("ext4", opts)
    raise KeyError(f"unknown mount kind {kind!r}")


def envs_of(mount) -> List[KVEnv]:
    """The mount's KV environments: one, one per shard, or none (a
    baseline file system has no Bε-tree below it)."""
    env = getattr(mount, "env", None)
    if env is None:
        return []
    return list(getattr(env, "envs", [env]))


@dataclass
class Rep:
    """Everything one repetition measured."""

    setup_s: float
    #: Timed replay, raw host seconds.
    wall_s: float
    sim_s: float
    #: Machine speed around the timed region (:mod:`perfbench.calibrate`).
    speed: float
    #: Per VFS call, in replay order: the call's own duration, and the
    #: interval since the previous call ended (the call plus the replay
    #: or scheduler work before it).  ``host_gap_ns`` has one more
    #: entry, the tail after the last call, so it sums to ``wall_s``.
    host_call_ns: List[int]
    host_gap_ns: List[int]
    #: Per client op, session by session: host time inside its calls.
    host_op_ns: List[int]
    sim_op_s: List[float]
    attempted: int
    failed: int
    write_amp: float
    device_sha256: str
    #: ``ru_maxrss`` of the process when the timed region ended.
    peak_rss_kb: int
    #: Live file bytes, and on-disk bytes of the Bε-trees, after the
    #: final sync (the measured data-to-cache ratios).
    data_bytes: int
    tree_bytes: int
    #: Device bytes read per user byte read, timed phase only.
    read_amp: float
    #: Repeated names seen in listings (``Shadow.check_listing``).
    dup_dirents: int = 0
    #: Kept for the traced rep's counters and kernels; dropped otherwise.
    mount: object = None
    sched: Optional[Scheduler] = None


class Replayer:
    """Issues trace calls against one mount, checking each result."""

    def __init__(self, mount, shadow: Shadow) -> None:
        self.mount = mount
        self.shadow = shadow
        #: Per VFS call, in execution order: duration and end stamp.
        self.host_call_ns: List[int] = []
        self.host_end_ns: List[int] = []
        self.attempted = 0
        self.failed = 0
        self._errors = 0

    def _client_table(self, spent: List[int]) -> Dict[str, Callable]:
        """One client's call table, read from the mount's *current*
        attributes (so installed span wrappers are seen).  Every call is
        stamped; its duration is also added to ``spent[0]``, the client's
        running total for the op in flight."""
        vfs = self.mount.vfs
        targets = {
            "mkdir": vfs.mkdir,
            "create": vfs.create,
            "write": vfs.write,
            "read": vfs.read,
            "fsync": vfs.fsync,
            "sync": vfs.sync,
            "rename": vfs.rename,
            "unlink": vfs.unlink,
            "readdir": vfs.readdir_plus,
            "drop_caches": vfs.drop_caches,
        }
        durations, ends = self.host_call_ns, self.host_end_ns
        now_ns = time.perf_counter_ns

        def stamped(fn: Callable) -> Callable:
            def call(*args):
                t0 = now_ns()
                out = fn(*args)
                t1 = now_ns()
                durations.append(t1 - t0)
                ends.append(t1)
                spent[0] += t1 - t0
                return out

            return call

        return {name: stamped(fn) for name, fn in targets.items()}

    def _note_failure(self, op: Op) -> None:
        self.failed += 1
        if sys.exc_info()[0] is not None and self._errors < MAX_REPORTED_ERRORS:
            self._errors += 1
            print(f"perfbench: op {op.kind} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    # ------------------------------------------------------------------
    def run_sequential(self, ops: List[Op], sim_op_s: List[float], host_op_ns: List[int]) -> None:
        """One client, closed loop: each op starts when the last ends.
        Appends each op's simulated latency and host time in its calls."""
        spent = [0]
        table = self._client_table(spent)
        apply = self.shadow.apply
        clock = self.mount.clock
        for op in ops:
            s0 = clock.now
            spent[0] = 0
            self.attempted += 1
            try:
                ok = True
                for call in op.calls:
                    ok = apply(call, table[call[0]](*call[1:])) and ok
                if not ok:
                    self._note_failure(op)
            except Exception:  # the replay must survive a failing op to count it
                self._note_failure(op)
            sim_op_s.append(clock.now - s0)
            host_op_ns.append(spent[0])

    def spawn_sessions(self, sessions: List[List[Op]], host_op_ns: List[List[int]]) -> Scheduler:
        """The sessions as coroutines under the FIFO scheduler; every op
        holds its folder locks (sorted) across all of its calls.  Each
        session appends its ops' host times to its own list in
        ``host_op_ns`` (sessions interleave; their lists do not)."""
        sched = Scheduler(self.mount, policy="fifo", seed=0)
        for sid, ops in enumerate(sessions):
            host_op_ns.append([])
            sched.spawn(f"user{sid:03d}", self._script(ops, host_op_ns[-1]))
        return sched

    def _script(self, ops: List[Op], host_op_ns: List[int]):
        spent = [0]
        table = self._client_table(spent)
        apply = self.shadow.apply

        def script(ctx):
            for op in ops:
                self.attempted += 1
                for key in op.locks:
                    yield from ctx.acquire(key)
                spent[0] = 0
                try:
                    ok = True
                    for call in op.calls:
                        out = yield from ctx.run(table[call[0]], *call[1:])
                        ok = apply(call, out) and ok
                    if not ok:
                        self._note_failure(op)
                except Exception:  # as in run_sequential
                    self._note_failure(op)
                host_op_ns.append(spent[0])
                for key in reversed(op.locks):
                    ctx.release(key)
                ctx.op_done()

        return script


# ----------------------------------------------------------------------
def recovered_env(mount) -> KVEnv:
    """Pull the plug: reboot a fresh KV environment on a crash image of
    the mount's device (as ``examples/crash_recovery.py`` does)."""
    image = mount.device.crash_image()
    costs = CostModel()
    opts = mount.opts
    return KVEnv.open(
        SimpleFileLayer(
            image, costs, log_size=opts.log_size, meta_size=opts.meta_size
        ),
        image.clock,
        costs,
        KernelAllocator(image.clock, costs),
        mount.config,
        log_size=opts.log_size,
        meta_size=opts.meta_size,
        data_size=opts.data_size,
        log_page_values=False,
    )


def check_durable(mount, shadow: Shadow) -> List[str]:
    """Paths the trace made durable that crash recovery lost."""
    env = recovered_env(mount)
    return [
        path
        for path in sorted(shadow.durable)
        if env.get(META, meta_key(path)) is None
    ]


def check_readback(mount, shadow: Shadow) -> List[str]:
    """Cold read-back of the whole namespace; returns mismatching paths."""
    vfs = mount.vfs
    vfs.sync()
    vfs.drop_caches()
    bad: List[str] = []
    # In key order, so the cold read walks each leaf once.
    for path in sorted(shadow.files):
        body = shadow.files[path]
        if vfs.read(path, 0, len(body) + 1) != body:
            bad.append(path)
    for path in sorted(shadow.dirs):
        if not shadow.check_listing(path, vfs.readdir_plus(path)):
            bad.append(path)
    return bad


# ----------------------------------------------------------------------
def run_rep(
    workload: Workload,
    trace: Trace,
    tracer=None,
    verify: bool = False,
    keep: bool = False,
    tamper: Optional[Callable] = None,
) -> Rep:
    """One repetition on a fresh mount.

    ``tracer`` (a :class:`perfbench.trace.SpanTracer`) is attached after
    setup, so spans cover the timed region only.  ``verify`` adds the
    post-run crash-recovery and read-back checks (outside the timed
    region).  ``tamper(mount)`` lets the self-tests corrupt the mount
    before replay.
    """
    gc.collect()
    t_setup = time.perf_counter()
    mount = build_mount(workload.mount, workload.tree_cache_bytes)
    shadow = Shadow()
    player = Replayer(mount, shadow)
    if tamper is not None:
        tamper(mount)
    player.run_sequential(trace.setup, [], [])
    setup_s = time.perf_counter() - t_setup

    if tracer is not None:
        tracer.attach(
            mount.clock, layer_objects(mount) + [(shadow, "perfbench")]
        )
        tracer.attach_serializers()
    session_op_ns: List[List[int]] = []
    sched = None
    if workload.scheduled:
        sched = player.spawn_sessions(trace.sessions, session_op_ns)
    if tracer is not None and sched is not None:
        tracer.attach(mount.clock, sched_objects(sched))
    player.host_call_ns.clear()
    player.host_end_ns.clear()
    stats = mount.device.stats
    device_read0, user_read0 = stats.bytes_read, shadow.bytes_read
    sim_op_s: List[float] = []
    sim0 = mount.clock.now
    # Collector pauses land on arbitrary calls; the timed region runs
    # without it, and each rep starts from a collected heap.
    gc.disable()
    try:
        kernel = [kernel_seconds() for _ in range(3)]
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter_ns()
        if sched is not None:
            sched.run()
        else:
            session_op_ns.append([])
            player.run_sequential(trace.sessions[0], sim_op_s, session_op_ns[0])
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end()
        kernel += [kernel_seconds() for _ in range(3)]
    finally:
        gc.enable()
        if tracer is not None:
            tracer.detach()
    # High-water mark so far, read before the verification below can
    # raise it (a crash image copies the device store and the FTL).
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ends = player.host_end_ns
    gaps = [end - start for start, end in zip([t0] + ends, ends + [t1])]
    sim_s = mount.clock.now - sim0
    if sched is not None:
        for session in sched.sessions:
            sim_op_s.extend(session.latencies)

    attempted, failed = player.attempted, player.failed
    if verify and workload.mount == "betrfs":
        lost = check_durable(mount, shadow)
        attempted += len(shadow.durable)
        failed += len(lost)
        for path in lost[:MAX_REPORTED_ERRORS]:
            print(f"perfbench: durable file lost by recovery: {path}", file=sys.stderr)
    read_amp = (stats.bytes_read - device_read0) / max(1, shadow.bytes_read - user_read0)
    mount.vfs.sync()
    rep = Rep(
        setup_s=setup_s,
        wall_s=(t1 - t0) * 1e-9,
        sim_s=sim_s,
        speed=speed(kernel),
        host_call_ns=player.host_call_ns,
        host_gap_ns=gaps,
        host_op_ns=[ns for session in session_op_ns for ns in session],
        sim_op_s=sim_op_s,
        attempted=attempted,
        failed=failed,
        write_amp=stats.bytes_written / max(1, shadow.bytes_written),
        device_sha256=device_sha256(mount.device),
        peak_rss_kb=peak_rss_kb,
        data_bytes=sum(len(body) for body in shadow.files.values()),
        tree_bytes=sum(
            length
            for env in envs_of(mount)
            for tree in env.trees
            for _off, length in tree.blockman.table.values()
        ),
        read_amp=read_amp,
    )
    if verify:
        bad = check_readback(mount, shadow)
        rep.attempted += len(shadow.files) + len(shadow.dirs)
        rep.failed += len(bad)
        for path in bad[:MAX_REPORTED_ERRORS]:
            print(f"perfbench: read-back mismatch: {path}", file=sys.stderr)
    rep.dup_dirents = shadow.dup_dirents
    if keep:
        rep.mount, rep.sched = mount, sched
    return rep
