"""Tests for ``repro.sched``: the deterministic multi-tenant scheduler.

Covers the PR's acceptance criteria:

* two same-seed multi-tenant runs are byte-identical (summary JSON,
  device sha256, simulated clock, per-session percentiles);
* (the sequential mailserver *is* the one-session scheduled run since
  PR 18, so that identity is no longer a test);
* session locks hand off FIFO, reject re-acquire/foreign release, and
  a workload that can only deadlock is detected, not spun on;
* policies are pure functions of (ready set, state, seeded RNG);
* fairness math (Jain's index, max-wait) and the per-session
  latency/block accounting;
* a session sleeps through the device wait its call ends on, fsyncs
  that find the device busy share one flush, and each is durable when
  its session resumes;
* the 64-session configuration from the issue completes and reports.
"""

import json
import os
import random

import pytest

from repro.betrfs.filesystem import make_betrfs
from repro.check.errors import SchedInvariantError
from repro.crashmc.plan import CrashPlan
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.harness.__main__ import main as harness_main
from repro.harness.mt import run_mt, to_json
from repro.model.profiles import COMMODITY_SSD
from repro.sched import (
    BLOCK_KINDS,
    Blocked,
    FSYNC,
    LOCK_WAIT,
    LockTable,
    Scheduler,
    SessionLock,
    make_policy,
    policy_names,
)
from repro.sched.policy import FIFOPolicy, LotteryPolicy, RoundRobinPolicy
from repro.sched.sched import Scheduler as SchedulerClass
from repro.sched.session import SessionContext
from repro.workloads.mailserver import mailserver_mt
from repro.workloads.scale import SMOKE_SCALE


# ----------------------------------------------------------------------
# Locks
# ----------------------------------------------------------------------
class TestSessionLock:
    def test_uncontended_take_and_release(self):
        lock = SessionLock("k")
        assert lock.try_take(1)
        assert lock.owner == 1
        assert lock.release(1) is None
        assert lock.owner is None
        assert lock.acquisitions == 1
        assert lock.contentions == 0

    def test_fifo_handoff_order(self):
        lock = SessionLock("k")
        assert lock.try_take(0)
        for sid in (3, 1, 2):  # enqueue order, NOT sid order
            assert not lock.try_take(sid)
            lock.enqueue(sid)
        assert lock.release(0) == 3  # direct handoff to head waiter
        assert lock.owner == 3
        assert lock.release(3) == 1
        assert lock.release(1) == 2
        assert lock.release(2) is None
        assert lock.contentions == 3
        assert lock.acquisitions == 4

    def test_reacquire_is_an_invariant_error(self):
        lock = SessionLock("k")
        lock.try_take(5)
        with pytest.raises(SchedInvariantError):
            lock.try_take(5)

    def test_release_by_non_owner_rejected(self):
        lock = SessionLock("k")
        lock.try_take(1)
        with pytest.raises(SchedInvariantError):
            lock.release(2)

    def test_double_enqueue_rejected(self):
        lock = SessionLock("k")
        lock.try_take(0)
        lock.enqueue(1)
        with pytest.raises(SchedInvariantError):
            lock.enqueue(1)

    def test_table_held_by_and_totals(self):
        table = LockTable()
        table.get("b").try_take(7)
        table.get("a").try_take(7)
        table.get("c").try_take(2)
        assert table.held_by(7) == ["a", "b"]
        assert table.acquisitions == 3
        assert table.contentions == 0


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class _FakeSession:
    def __init__(self, sid, runnable_since=0.0):
        self.sid = sid
        self.runnable_since = runnable_since


class TestPolicies:
    def test_registry(self):
        assert policy_names() == ["fifo", "lottery", "rr"]
        assert isinstance(make_policy("fifo"), FIFOPolicy)
        assert isinstance(make_policy("rr"), RoundRobinPolicy)
        assert isinstance(make_policy("lottery"), LotteryPolicy)
        with pytest.raises(KeyError):
            make_policy("cfs")

    def test_fifo_longest_runnable_ties_to_lowest_sid(self):
        ready = [
            _FakeSession(0, 5.0),
            _FakeSession(1, 2.0),
            _FakeSession(2, 2.0),
        ]
        pick = FIFOPolicy().pick(ready, random.Random(0))
        assert pick.sid == 1

    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy()
        ready = [_FakeSession(i) for i in range(3)]
        rng = random.Random(0)
        order = [policy.pick(ready, rng).sid for _ in range(6)]
        assert order == [0, 1, 2, 0, 1, 2]

    def test_lottery_is_seeded_and_weighted(self):
        ready = [_FakeSession(0), _FakeSession(1)]
        a, b = LotteryPolicy(), LotteryPolicy()
        picks_a = [a.pick(ready, random.Random(42)).sid for _ in range(1)]
        picks_b = [b.pick(ready, random.Random(42)).sid for _ in range(1)]
        assert picks_a == picks_b  # same seed, same draw
        # One ticket per session: one uniform draw over the ready set.
        rng, twin = random.Random(7), random.Random(7)
        for _ in range(50):
            assert a.pick(ready, rng) is ready[twin.randrange(len(ready))]


# ----------------------------------------------------------------------
# Scheduler mechanics on a synthetic mount
# ----------------------------------------------------------------------
class _FakeCosts:
    context_switch = 1.0e-6


class _FakeMount:
    def __init__(self):
        self.clock = SimClock()
        self.costs = _FakeCosts()


class TestSchedulerMechanics:
    def test_jain_index_math(self):
        assert SchedulerClass._jain([]) == 1.0
        assert SchedulerClass._jain([0.0, 0.0]) == 1.0
        assert SchedulerClass._jain([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        # One session got everything: 1/n.
        assert SchedulerClass._jain([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_single_session_never_charges_switches(self):
        mount = _FakeMount()
        sched = Scheduler(mount, seed=3)

        def script(ctx):
            for _ in range(5):
                yield from ctx.run(mount.clock.cpu, 1.0)
                ctx.op_done()

        sched.spawn("solo", script)
        sched.run()
        assert sched.switches == 0
        assert mount.clock.now == pytest.approx(5.0)
        assert sched.sessions[0].ops == 5

    def test_lock_deadlock_is_detected_not_spun(self):
        mount = _FakeMount()
        sched = Scheduler(mount, seed=0)

        def grab_forever(key):
            def script(ctx):
                yield from ctx.acquire(key)
                mount.clock.cpu(1.0)
                yield Blocked(FSYNC)  # suspend so the peer can run
                # Break the sorted-order discipline on purpose: the
                # second acquire can never be granted.
                other = "b" if key == "a" else "a"
                yield from ctx.acquire(other)

            return script

        sched.spawn("s0", grab_forever("a"))
        sched.spawn("s1", grab_forever("b"))
        with pytest.raises(SchedInvariantError, match="stalled"):
            sched.run()

    def test_finishing_with_held_lock_rejected(self):
        mount = _FakeMount()
        sched = Scheduler(mount, seed=0)

        def leaky(ctx):
            yield from ctx.acquire("k")
            yield Blocked(FSYNC)

        sched.spawn("leaky", leaky)
        with pytest.raises(SchedInvariantError, match="holding locks"):
            sched.run()

    def test_contended_lock_fifo_and_wait_accounting(self):
        mount = _FakeMount()
        sched = Scheduler(mount, seed=1)
        order = []

        def worker(name):
            def script(ctx):
                yield from ctx.acquire("shared")
                mount.clock.cpu(1.0)
                yield Blocked(FSYNC)  # suspend while holding the lock
                order.append(name)
                ctx.release("shared")
                ctx.op_done()

            return script

        for i in range(3):
            sched.spawn(f"w{i}", worker(f"w{i}"))
        sched.run()
        assert order == ["w0", "w1", "w2"]  # FIFO enqueue order
        assert sched.locks.contentions == 2
        assert sched.max_wait() > 0.0
        # Blocked-on-lock sessions recorded the lock_wait kind.
        totals = sched.block_totals()
        assert totals.get(LOCK_WAIT) == 2

    def test_lock_order_records_held_keys_only(self):
        sched = Scheduler(_FakeMount(), seed=0)

        def nested(ctx):
            yield from ctx.acquire("a")
            yield from ctx.acquire("b")
            ctx.release("b")
            ctx.release("a")
            yield from ctx.acquire("c")  # nothing held any more
            yield from ctx.acquire("d")
            ctx.release("d")
            ctx.release("c")

        sched.spawn("nested", nested)
        sched.run()
        assert sched.lock_order == {("a", "b"), ("c", "d")}


# ----------------------------------------------------------------------
# Runtime invariants on the per-op path: each check still fires, with
# its message, now that the message is built only on failure.
# ----------------------------------------------------------------------
def _raised(sched):
    with pytest.raises(SchedInvariantError) as info:
        sched.run()
    return str(info.value)


class TestRuntimeInvariants:
    def test_suspension_inside_a_tree_critical_section(self):
        from repro.betrfs.filesystem import make_betrfs

        fs = make_betrfs("BetrFS v0.6")
        sched = Scheduler(fs, seed=0)

        def script(ctx):
            yield from ctx.run(fs.vfs.create, "/f")
            fs.env.enter_critical()  # as a flush would, mid-surgery
            yield from ctx.run(fs.vfs.fsync, "/f")  # blocks: suspends

        sched.spawn("s0", script)
        assert _raised(sched) == (
            "session suspended inside a Bε-tree critical section"
        )

    def test_non_blocked_yield(self):
        sched = Scheduler(_FakeMount(), seed=0)

        def script(ctx):
            yield "fsync"

        sched.spawn("s0", script)
        assert _raised(sched) == "session yielded a non-Blocked event: 'fsync'"

    def test_acquire_resumed_without_owning_its_lock(self):
        mount = _FakeMount()
        sched = Scheduler(mount, seed=0)

        def owner(ctx):
            yield from ctx.acquire("k")
            mount.clock.cpu(1.0)
            yield Blocked(FSYNC)  # the waiter queues meanwhile
            sched.wake_lock_waiter(1)  # a spurious wake, no handoff
            mount.clock.cpu(1.0)
            yield Blocked(FSYNC)  # the waiter resumes first
            ctx.release("k")

        def waiter(ctx):
            yield from ctx.acquire("k")
            ctx.release("k")

        sched.spawn("owner", owner)
        sched.spawn("waiter", waiter)
        assert _raised(sched) == "session 1 resumed without owning 'k'"

    def test_handoff_to_a_session_not_in_lockwait(self):
        sched = Scheduler(_FakeMount(), seed=0)

        def owner(ctx):
            yield from ctx.acquire("k")
            sched.locks.get("k").enqueue(1)  # queued, but never waiting
            ctx.release("k")

        def bystander(ctx):
            yield Blocked(FSYNC)

        sched.spawn("owner", owner)
        sched.spawn("bystander", bystander)
        assert _raised(sched) == "lock handoff to session 1 in state ready"


# ----------------------------------------------------------------------
# Sleepers and group commit
# ----------------------------------------------------------------------
class _DeviceMount:
    """A mount that is a clock and one volatile-cache device."""

    def __init__(self):
        self.clock = SimClock()
        self.device = BlockDevice(self.clock, COMMODITY_SSD, volatile_cache=True)
        self.costs = _FakeCosts()


class TestGroupCommit:
    def _fsync_like(self, dev, offset):
        def call():
            dev.write(offset, b"m" * 4096)
            dev.flush()

        return call

    def test_fsyncs_on_a_busy_device_share_one_flush(self):
        mount = _DeviceMount()
        dev = mount.device
        woke = {}

        def script(name, offset):
            def run(ctx):
                yield from ctx.run(self._fsync_like(dev, offset))
                woke[name] = (ctx.session.runnable_since, dev.sealed_epochs())

            return run

        sched = Scheduler(mount)
        sched.spawn("a", script("a", 0))
        sched.spawn("b", script("b", 1 << 20))
        sched.run()
        assert dev.stats.flushes == 1
        done = dev.busy_until
        assert woke == {"a": (done, 1), "b": (done, 1)}
        assert [r.offset for r in dev.epoch_records(0)] == [0, 1 << 20]
        assert mount.clock.hold is None and dev._group is None

    def test_a_lone_session_sleeps_to_the_unscheduled_deadlines(self):
        plain = _DeviceMount()
        for offset in (0, 1 << 20):
            self._fsync_like(plain.device, offset)()
        mount = _DeviceMount()

        def run(ctx):
            for offset in (0, 1 << 20):
                yield from ctx.run(self._fsync_like(mount.device, offset))

        sched = Scheduler(mount)
        sched.spawn("solo", run)
        sched.run()
        assert (mount.clock.now, mount.clock.io_wait) == (
            plain.clock.now, plain.clock.io_wait
        )
        assert mount.device.stats.flushes == plain.device.stats.flushes == 2

    def test_every_fsync_is_durable_when_its_session_resumes(self, monkeypatch):
        """8 mail sessions on a volatile-cache device: when an fsync's
        session resumes, a crash that keeps only the sealed epochs
        reads the file back as the device already holds it."""
        fs = make_betrfs("BetrFS v0.6")
        fs.device.enable_volatile_cache()
        checked = []
        run = SessionContext.run

        def checked_run(ctx, fn, *args):
            out = yield from run(ctx, fn, *args)
            if fn == fs.vfs.fsync:
                path = args[0]
                sealed = CrashPlan(epoch=fs.device.sealed_epochs())
                durable, accepted = fs.crash(sealed).vfs, fs.crash().vfs
                size = accepted.stat(path).size
                assert durable.stat(path).size == size, path
                assert durable.read(path, 0, size) == accepted.read(path, 0, size)
                checked.append(path)
            return out

        monkeypatch.setattr(SessionContext, "run", checked_run)
        sched = mailserver_mt(fs, SMOKE_SCALE, sessions=8, seed=11)
        assert sched.block_totals()["fsync"] == len(checked) > 8


# ----------------------------------------------------------------------
# End-to-end: the multi-tenant mailserver
# ----------------------------------------------------------------------
class TestMailserverMT:
    def test_same_seed_runs_byte_identical(self):
        a = run_mt(SMOKE_SCALE, sessions=4, seed=7)
        b = run_mt(SMOKE_SCALE, sessions=4, seed=7)
        assert to_json(a) == to_json(b)
        assert a["device_sha256"] == b["device_sha256"]
        assert a["sim_seconds"] == b["sim_seconds"]
        assert a["per_session"] == b["per_session"]

    def test_different_seed_differs(self):
        a = run_mt(SMOKE_SCALE, sessions=4, seed=7)
        b = run_mt(SMOKE_SCALE, sessions=4, seed=8)
        assert a["device_sha256"] != b["device_sha256"]

    def test_summary_shape_and_blocks(self):
        summary = run_mt(SMOKE_SCALE, sessions=4, seed=7)
        assert summary["schema"] == "repro-mt v4"
        assert summary["sessions"] == 4
        assert len(summary["per_session"]) == 4
        assert summary["ops"] > 0
        assert set(summary["blocks"]) <= set(BLOCK_KINDS)
        # A contended multi-tenant mail mix must actually block: on
        # durability barriers and on folder locks at minimum.
        assert summary["blocks"].get("fsync", 0) > 0
        assert summary["blocks"].get("journal_commit", 0) > 0
        assert summary["blocks"].get("lock_wait", 0) > 0
        assert summary["locks"]["contentions"] > 0
        fair = summary["fairness"]
        assert 0.0 < fair["jain_service"] <= 1.0
        assert 0.0 < fair["jain_ops"] <= 1.0
        assert fair["max_wait_seconds"] > 0.0
        for sess in summary["per_session"]:
            assert sess["ops"] > 0
            assert sess["p99_seconds"] >= sess["p50_seconds"] > 0.0
        # The canonical JSON rendering round-trips.
        assert json.loads(to_json(summary)) == json.loads(to_json(summary))

    def test_policies_complete_and_diverge(self):
        fifo = run_mt(SMOKE_SCALE, sessions=4, seed=7, policy="fifo")
        lottery = run_mt(SMOKE_SCALE, sessions=4, seed=7, policy="lottery")
        assert fifo["ops"] == lottery["ops"]
        # Different interleavings reach different device images (moves
        # allocate ids in dispatch order) or at least different clocks.
        assert (
            fifo["device_sha256"] != lottery["device_sha256"]
            or fifo["sim_seconds"] != lottery["sim_seconds"]
        )
        lottery2 = run_mt(SMOKE_SCALE, sessions=4, seed=7, policy="lottery")
        assert to_json(lottery) == to_json(lottery2)

    @pytest.mark.parametrize(
        "golden, flags",
        [
            ("fifo", ["--policy", "fifo"]),
            ("rr", ["--policy", "rr"]),
            ("lottery", ["--policy", "lottery"]),
            ("fifo_shards8", ["--shards", "8"]),
        ],
    )
    def test_summary_matches_committed_golden(self, golden, flags, capsys):
        """The interleaving is pinned across commits, not only between
        two runs of one: ``python -m repro.harness mt --scale smoke
        --sessions 8 --seed 7 --quiet <flags>`` must print the committed
        ``tests/fixtures/mt/<golden>.json`` byte for byte (a deliberate
        change re-blesses by redirecting that command into the file)."""
        argv = ["mt", "--scale", "smoke", "--sessions", "8", "--seed", "7"]
        assert harness_main(argv + flags + ["--quiet"]) == 0
        path = os.path.join(
            os.path.dirname(__file__), "fixtures", "mt", f"{golden}.json"
        )
        with open(path, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_sixty_four_sessions_smoke(self):
        summary = run_mt(SMOKE_SCALE, sessions=64, seed=7, ops_per_session=4)
        assert summary["sessions"] == 64
        assert len(summary["per_session"]) == 64
        assert summary["ops"] > 0
        assert summary["switches"] > 0
        assert 0.0 < summary["fairness"]["jain_ops"] <= 1.0


# ----------------------------------------------------------------------
# crashmc integration
# ----------------------------------------------------------------------
class TestCrashmcMT:
    def test_mt_kv_workload_is_pure(self):
        from repro.crashmc.workload import WORKLOADS, mailserver_mt_kv

        assert "mailserver_mt" in WORKLOADS
        def shape(ops):
            return [(op.kind, op.tree, op.key) for op in ops]

        a = mailserver_mt_kv(5)
        assert shape(a) == shape(mailserver_mt_kv(5))
        assert shape(a) != shape(mailserver_mt_kv(6))
        # Several users' keys appear, and durability points exist.
        keys = {op.key for op in a if getattr(op, "key", None)}
        assert any(k.startswith(b"u0/") for k in keys)
        assert any(k.startswith(b"u3/") for k in keys)
        assert any(op.kind == "sync" for op in a)

    def test_mt_mini_sweep_clean(self):
        from repro.crashmc import CrashExplorer

        explorer = CrashExplorer(
            seed=2, budget=20, workloads=("mailserver_mt",)
        )
        summary = explorer.run()
        assert summary.violations == 0
        assert summary.cases > 0
