"""The crash explorer: drive workloads to crash points, enumerate
plans, reboot, and judge.

For each workload the explorer runs the op script twice on identical
volatile-cache stacks:

1. a **counting pass** that only tallies how many candidate plans each
   crash point offers (crash points are: every barrier epoch sealed
   *during* an op, plus the open epoch whenever an op grew it), then
   splits the per-workload case budget across the points round-robin
   (plan quota a workload cannot use goes to the workloads with more
   plans than quota first; see :meth:`CrashExplorer._budgets`);
2. an **exploration pass** that re-runs the script and, at each crash
   point, materializes its quota of crash images via
   :meth:`BlockDevice.crash_image`, runs :func:`repro.check.fsck` on
   each, re-mounts the image through the workload's own mount
   (:meth:`BetrFS.remount`), and asks the
   :class:`~repro.crashmc.oracle.Oracle` whether the recovered state
   is an acceptable pending-prefix.

Budget left over after the plan space is exhausted (plus a reserved
~10% slice) is spent on post-crash **media-fault** plans — seeded
bit-flips and latent sector errors inside the log/meta/data carve —
where *detection* (fsck error, checksum failure, read error) is a
pass and only silent wrong data is a violation.

Any violating case is immediately re-run through the shrinker
(:mod:`repro.crashmc.shrink`) so the reported failure carries a
1-minimal plan; ``repro.harness torture`` writes it to a replayable
repro file.

Everything is derived from one integer seed; two runs with the same
seed produce byte-identical summaries (no wall-clock, no ambient
randomness — the purity lint holds this package to the device-layer
rules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.betrfs.filesystem import BetrFS, MountOptions
from repro.betrfs.versions import V0_6
from repro.check.fsck import fsck_mount
from repro.core.env import TREE_FILES
from repro.core.wal import OP_DELETE, OP_INSERT
from repro.crashmc.oracle import Op, Oracle
from repro.crashmc.plan import CrashPlan
from repro.crashmc.schedule import enumerate_plans, media_plans
from repro.crashmc.workload import WORKLOADS, derive_rng
from repro.device.block import BlockDevice
from repro.device.clock import SimClock
from repro.obs import scope_for_mount, session
from repro.shard.mount import ShardedBetrFS
from repro.storage.sfl import SUPERBLOCK_SIZE, ImageLayout

MIB = 1 << 20

#: Verdict classes a case can land in.
CLEAN = "clean"          # recovered, oracle satisfied
DETECTED = "detected"    # media damage caught (fsck/checksum/read error)
VIOLATION = "violation"  # crash-consistency contract broken


@dataclass
class CaseResult:
    status: str  # CLEAN / DETECTED / VIOLATION
    stage: str = ""  # fsck / oracle / exception ("" for clean)
    detail: str = ""


@dataclass
class Failure:
    workload: str
    op_index: int
    op: str
    plan: CrashPlan
    shrunk: CrashPlan
    stage: str
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "op_index": self.op_index,
            "op": self.op,
            "plan": self.plan.to_dict(),
            "shrunk": self.shrunk.to_dict(),
            "stage": self.stage,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Carve:
    """Volume count and SFL carve sizes of one workload's mount (each
    volume owns an equal share of the device)."""

    volumes: int = 1
    meta_size: int = 64 * MIB
    data_size: int = 256 * MIB
    #: Leading ``data.db`` bytes the media-fault sweep may damage.
    media_data: int = 4 * MIB


#: Workloads that run on something other than the default carve.  The
#: explorer and :func:`repro.crashmc.shrink.replay_repro` both build
#: their stack/oracle pair from this table (via :func:`stack_for`), so
#: a repro file replays on what its workload was explored on.
CARVES: Dict[str, Carve] = {
    "xshard_rename": Carve(
        volumes=2, meta_size=32 * MIB, data_size=64 * MIB, media_data=2 * MIB
    ),
}


class _Stack:
    """One live workload mount on a volatile-cache device.

    The mount is the one the paper ships — ``BetrFS v0.6`` from the
    one assembler, :class:`~repro.shard.mount.ShardedBetrFS` when the
    carve has several volumes — at a geometry small enough that the
    torture workloads actually exercise node splits, checkpoint I/O
    and log replay.  Ops drive its ``env``, each key in the tree of the
    volume its path routes to (a range delete spans every volume); a
    case fscks and reboots a crash image through the mount.  No mount
    built here registers with an installed obs session: a sweep makes
    hundreds of them.
    """

    def __init__(self, carve: Optional[Carve] = None) -> None:
        self.carve = carve = carve or Carve()
        opts = MountOptions(
            scale=1.0,
            log_size=8 * MIB,
            meta_size=carve.meta_size,
            data_size=carve.data_size,
            tree_cache_bytes=1 * MIB,
            config_tweaks={
                "node_size": 8192,
                "basement_size": 2048,
                "buffer_size": 4096,
                "fanout": 4,
            },
        )
        with session(None):
            if carve.volumes == 1:
                self.fs = BetrFS(V0_6, opts)
            else:
                self.fs = ShardedBetrFS(V0_6, opts, shards=carve.volumes)
        self.env = self.fs.env
        #: The device's one log.
        self.wal = self.env.wal
        #: Routes each op's key as the mount's northbound routes paths.
        self.map = self.fs.backend.map
        self.device = self.fs.device
        self.device.enable_volatile_cache()
        #: Every volume layout carved from ``self.device``; the order
        #: recorder spans these.
        self.layouts: List[ImageLayout] = [s.layout for s in self.fs.storages]
        self.layout: ImageLayout = self.layouts[0]

    def _tree(self, tree: int, key: bytes) -> int:
        """The environment tree holding ``key`` of logical tree ``tree``."""
        return self.map.owner_of_key(key) * len(TREE_FILES) + tree

    def apply(self, op: Op) -> None:
        env = self.env
        if op.kind == "insert":
            env.insert(self._tree(op.tree, op.key), op.key, op.value)
        elif op.kind == "delete":
            env.delete(self._tree(op.tree, op.key), op.key)
        elif op.kind == "range_delete":
            for tree in range(op.tree, len(env.trees), len(TREE_FILES)):
                env.range_delete(tree, op.key, op.end)
        elif op.kind == "patch":
            env.patch(self._tree(op.tree, op.key), op.key, op.offset, op.value)
        elif op.kind == "sync":
            env.sync()
        elif op.kind == "checkpoint":
            env.checkpoint()
        elif op.kind == "wflush":
            # Push the WAL buffer to the device with NO barrier: these
            # writes sit in the open epoch, at the mercy of the plan.
            self.wal.flush(durable=False)
        elif op.kind == "xrename":
            # A key move between volumes: one log record, or nothing
            # when the source is missing.
            source = self._tree(op.tree, op.key)
            value = env.get(source, op.key)
            if value is not None:
                env.apply_batch([
                    (OP_INSERT, self._tree(op.tree, op.end), op.end, value, 0),
                    (OP_DELETE, source, op.key, b"", 0),
                ])
        else:  # pragma: no cover - workload bug
            raise ValueError(f"unknown op kind {op.kind!r}")

    def reboot(self, image: BlockDevice):
        """Re-mount the image (log replay); returns the ``get`` callable
        for the oracle to probe."""
        with session(None):
            env = self.fs.remount(image).env
        return lambda tree, key: env.get(self._tree(tree, key), key)

    def media_regions(self) -> List[tuple]:
        """(base, size) regions the media-fault sweep may damage: the
        superblock and the log (the first volume's), then each volume's
        trees."""
        first = self.layout
        regions = [(first.base, SUPERBLOCK_SIZE), (first.log_base, first.log_size)]
        for layout in self.layouts:
            regions.append((layout.meta_base, layout.meta_size))
            regions.append((layout.data_base, self.carve.media_data))
        return regions


def stack_for(workload: str) -> Tuple[_Stack, Oracle]:
    """A fresh stack and its oracle, carved as ``workload`` requires."""
    return _Stack(CARVES.get(workload)), Oracle()


def run_case(stack: _Stack, oracle: Oracle, plan: CrashPlan) -> CaseResult:
    """Materialize one crash image, fsck it, reboot, and judge."""
    media = plan.is_media_fault

    def caught(stage: str, detail: str) -> CaseResult:
        if media:
            return CaseResult(DETECTED, stage, detail)
        return CaseResult(VIOLATION, stage, detail)

    # Plan/device misuse (ValueError here) is a caller bug, not a verdict.
    image = stack.device.crash_image(plan)
    try:
        errors = fsck_mount(stack.fs, image).errors
    except Exception as exc:  # fsck itself choked on the image
        return caught("exception", f"fsck raised {exc!r}")
    if errors:
        return caught("fsck", "; ".join(errors[:3]))
    try:
        verdict = oracle.check(stack.reboot(image))
    except Exception as exc:
        return caught("exception", f"recovery raised {exc!r}")
    if verdict.ok:
        return CaseResult(CLEAN, "", verdict.detail)
    # Silent wrong data is a violation even for media plans: the whole
    # point of checksums is that damage must never read back as truth.
    return CaseResult(VIOLATION, "oracle", verdict.detail)


@dataclass
class WorkloadReport:
    name: str
    ops: int = 0
    points: int = 0
    sealed_epochs: int = 0
    plans_enumerated: int = 0
    #: Plans explored: the sum of the per-point quotas.
    plans_covered: int = 0
    cases: int = 0
    clean: int = 0
    detected: int = 0
    violations: int = 0
    by_stage: Dict[str, int] = field(default_factory=dict)
    failures: List[Failure] = field(default_factory=list)

    def record(self, result: CaseResult) -> None:
        self.cases += 1
        if result.status == CLEAN:
            self.clean += 1
        elif result.status == DETECTED:
            self.detected += 1
        else:
            self.violations += 1
            self.by_stage[result.stage] = self.by_stage.get(result.stage, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ops": self.ops,
            "points": self.points,
            "sealed_epochs": self.sealed_epochs,
            "plans_enumerated": self.plans_enumerated,
            "plans_covered": self.plans_covered,
            "cases": self.cases,
            "clean": self.clean,
            "detected": self.detected,
            "violations": self.violations,
            "violations_by_stage": dict(sorted(self.by_stage.items())),
            "failures": [f.to_dict() for f in self.failures],
        }


@dataclass
class TortureSummary:
    seed: int
    budget: int
    workloads: List[WorkloadReport]

    @property
    def cases(self) -> int:
        return sum(w.cases for w in self.workloads)

    @property
    def violations(self) -> int:
        return sum(w.violations for w in self.workloads)

    @property
    def failures(self) -> List[Failure]:
        return [f for w in self.workloads for f in w.failures]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "cases": self.cases,
            "clean": sum(w.clean for w in self.workloads),
            "detected": sum(w.detected for w in self.workloads),
            "violations": self.violations,
            "workloads": [w.to_dict() for w in self.workloads],
        }


class CrashExplorer:
    """Systematic bounded crash-state exploration (the torture target)."""

    #: Fraction of each workload's budget reserved for media-fault plans.
    MEDIA_SHARE = 10  # i.e. budget // MEDIA_SHARE

    def __init__(
        self,
        seed: int,
        budget: int,
        workloads: Sequence[str] = (
            "tokubench",
            "mailserver",
            "mailserver_mt",
            "xshard_rename",
        ),
        order_log=None,
    ) -> None:
        self.seed = seed
        self.budget = budget
        #: Optional :class:`repro.check.order.OrderLog`; when set, every
        #: live stack's device gets a pure-observer order recorder.
        self.order_log = order_log
        self.workload_names = list(workloads)
        for name in self.workload_names:
            if name not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {name!r} (have {sorted(WORKLOADS)})"
                )
        self.obs = scope_for_mount("crashmc", SimClock(), self)
        reg = self.obs.registry
        self._c_cases = reg.counter("crashmc.cases", layer="crashmc")
        self._c_clean = reg.counter("crashmc.clean", layer="crashmc")
        self._c_detected = reg.counter("crashmc.detected", layer="crashmc")
        self._c_violations = reg.counter("crashmc.violations", layer="crashmc")
        self._c_plans = reg.counter("crashmc.plans_enumerated", layer="crashmc")
        self._c_points = reg.counter("crashmc.crash_points", layer="crashmc")
        self._h_epoch = reg.histogram(
            "crashmc.records_per_epoch", layer="crashmc", bounds=None, unit="cmds"
        )
        self._h_point = reg.histogram(
            "crashmc.plans_per_point", layer="crashmc", bounds=None, unit="plans"
        )

    # ------------------------------------------------------------------
    def run(self) -> TortureSummary:
        names = self.workload_names
        share = self.budget // len(names)
        shares = [share] * len(names)
        shares[0] += self.budget - share * len(names)
        counted = [self._count(name) for name in names]
        budgets = self._budgets(shares, [sum(counts) for _ops, counts in counted])
        reports = [
            self._run_workload(name, ops, counts, plan_budget, media_budget)
            for name, (ops, counts), (plan_budget, media_budget) in zip(
                names, counted, budgets
            )
        ]
        return TortureSummary(self.seed, self.budget, reports)

    @classmethod
    def _budgets(cls, shares: List[int], needs: List[int]) -> List[Tuple[int, int]]:
        """Each workload's ``(plan budget, media budget)`` out of its
        ``share`` of the cases, ``needs`` being its enumerated plans.

        A workload keeps ``share // MEDIA_SHARE`` for media faults.  The
        plan quota it cannot use goes to the workloads whose plans
        outnumber their quota, in order; what none of them needs comes
        back to the workloads that gave it, as media cases.  The
        budgets sum to the shares."""
        media = [share // cls.MEDIA_SHARE for share in shares]
        plans = [min(need, s - m) for s, need, m in zip(shares, needs, media)]
        spare = [s - m - p for s, m, p in zip(shares, media, plans)]
        pool = sum(spare)
        for i, need in enumerate(needs):
            take = min(pool, need - plans[i])
            plans[i] += take
            pool -= take
        given = sum(spare) - pool
        for i, unused in enumerate(spare):
            gone = min(unused, given)
            media[i] += unused - gone
            given -= gone
        return list(zip(plans, media))

    # ------------------------------------------------------------------
    def _plans_for_point(
        self, stack: _Stack, point_index: int, name: str,
        epoch: Optional[int],
    ) -> List[CrashPlan]:
        """The (deterministic) plan list for one crash point.  The RNG
        is derived per point, so the counting and exploration passes
        draw identical samples."""
        records = stack.device.epoch_records(epoch)
        rng = derive_rng(self.seed, f"{name}:plans:{point_index}")
        return enumerate_plans(
            records,
            epoch=epoch,
            sector=stack.device.profile.sector,
            rng=rng,
        )

    def _crash_points(
        self, stack: _Stack, name: str, ops: List[Op],
        visit: Optional[Callable[[int, Op, Optional[int], List[CrashPlan]], None]],
        oracle: Optional[Oracle] = None,
    ) -> List[int]:
        """Run ``ops`` on ``stack``; at every crash point enumerate its
        plans and (optionally) hand them to ``visit``.  Returns the
        per-point candidate counts, in point order."""
        counts: List[int] = []
        open_len = 0
        for i, op in enumerate(ops):
            if oracle is not None:
                oracle.begin(op)
            sealed_before = stack.device.sealed_epochs()
            stack.apply(op)
            sealed_after = stack.device.sealed_epochs()
            for epoch in range(sealed_before, sealed_after):
                plans = self._plans_for_point(stack, len(counts), name, epoch)
                counts.append(len(plans))
                if visit is not None:
                    visit(i, op, epoch, plans)
            now_open = len(stack.device.unflushed())
            if now_open != (0 if sealed_after > sealed_before else open_len):
                if now_open:
                    plans = self._plans_for_point(stack, len(counts), name, None)
                    counts.append(len(plans))
                    if visit is not None:
                        visit(i, op, None, plans)
            open_len = now_open
            if oracle is not None:
                oracle.commit(op)
        return counts

    def _observe(self, stack: _Stack) -> _Stack:
        """Attach the optional order recorder to a live stack's device.

        Only live stacks are observed; crash images and reboot devices
        replay durable state and add no new orderings."""
        if self.order_log is not None:
            self.order_log.attach(stack.device, stack.layouts)
        return stack

    @staticmethod
    def _quotas(counts: List[int], budget: int) -> List[int]:
        """Round-robin the case budget across crash points, capped at
        each point's candidate count.  Deterministic."""
        quotas = [0] * len(counts)
        remaining = min(budget, sum(counts))
        while remaining > 0:
            progress = False
            for i, cand in enumerate(counts):
                if remaining == 0:
                    break
                if quotas[i] < cand:
                    quotas[i] += 1
                    remaining -= 1
                    progress = True
            if not progress:  # pragma: no cover - min() above prevents
                break
        return quotas

    def _count(self, name: str) -> Tuple[List[Op], List[int]]:
        """Pass 1: the workload's ops and its candidate plans per crash
        point."""
        ops = WORKLOADS[name](self.seed)
        counts = self._crash_points(
            self._observe(stack_for(name)[0]), name, ops, visit=None
        )
        return ops, counts

    def _run_workload(
        self,
        name: str,
        ops: List[Op],
        counts: List[int],
        plan_budget: int,
        media_quota: int,
    ) -> WorkloadReport:
        report = WorkloadReport(name=name, ops=len(ops))
        report.points = len(counts)
        report.plans_enumerated = sum(counts)
        self._c_points.inc(len(counts))
        self._c_plans.inc(sum(counts))
        for c in counts:
            self._h_point.observe(c)
        quotas = self._quotas(counts, plan_budget)
        report.plans_covered = sum(quotas)

        # Pass 2: re-run and explore each point's quota.
        stack, oracle = stack_for(name)
        self._observe(stack)
        point_iter = iter(quotas)

        def visit(i: int, op: Op, epoch: Optional[int], plans: List[CrashPlan]):
            quota = next(point_iter)
            for plan in plans[:quota]:
                self._run_one(stack, oracle, name, i, op, plan, report)

        self._crash_points(stack, name, ops, visit=visit, oracle=oracle)
        report.sealed_epochs = stack.device.sealed_epochs()
        for epoch in range(report.sealed_epochs):
            self._h_epoch.observe(len(stack.device.epoch_records(epoch)))

        # Media sweep at the final state: seeded faults in every region
        # the mount uses (``stack.media_regions``); in the superblock,
        # read_superblock's completion stamp lets fsck tell a flipped
        # byte in the newest slot (valid-but-stale fallback, reported)
        # from a torn checkpoint write (legal, silent).
        if media_quota > 0:
            regions = stack.media_regions()
            rng = derive_rng(self.seed, f"{name}:media")
            plans = media_plans(
                regions,
                sector=stack.device.profile.sector,
                rng=rng,
                count=media_quota,
            )
            last_op = len(ops) - 1
            for plan in plans:
                self._run_one(
                    stack, oracle, name, last_op, ops[-1], plan, report
                )
        return report

    def _run_one(
        self,
        stack: _Stack,
        oracle: Oracle,
        name: str,
        op_index: int,
        op: Op,
        plan: CrashPlan,
        report: WorkloadReport,
    ) -> None:
        result = run_case(stack, oracle, plan)
        report.record(result)
        self._c_cases.inc()
        if result.status == CLEAN:
            self._c_clean.inc()
        elif result.status == DETECTED:
            self._c_detected.inc()
        else:
            self._c_violations.inc()
            shrunk = self._shrink(stack, oracle, plan)
            report.failures.append(
                Failure(
                    workload=name,
                    op_index=op_index,
                    op=op.describe(),
                    plan=plan,
                    shrunk=shrunk,
                    stage=result.stage,
                    detail=result.detail,
                )
            )

    def _shrink(
        self, stack: _Stack, oracle: Oracle, plan: CrashPlan
    ) -> CrashPlan:
        from repro.crashmc.shrink import shrink_plan  # arch: allow[shrinker and explorer call each other (shrink replays via run_case); lazy import keeps module load acyclic]

        def still_fails(candidate: CrashPlan) -> bool:
            return run_case(stack, oracle, candidate).status == VIOLATION

        return shrink_plan(plan, still_fails)
