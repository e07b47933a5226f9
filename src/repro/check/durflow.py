"""Whole-program static durability-ordering analysis.

``python -m repro.check durflow`` proves — over the whole call graph,
not per-run — the ordering disciplines the paper's crash-consistency
story rests on.  ``repro.crashmc`` checks them dynamically on the
crash states a bounded budget happens to reach; this pass checks them
on *every* static path, and emits the happens-before graph the
runtime backstop (``harness torture --verify-order-graph``) checks
observed orderings against.

Three rule families:

* **write-ahead**: every path that mutates in-place Bε-tree state
  (``BeTree.put/delete/patch/range_delete``) must be dominated by the
  corresponding WAL append on that path, and no call site outside a
  recovery path may pass a constant ``log=False`` to a KV-env
  mutator.  Recovery code (WAL replay, fsck) is the sanctioned
  exception: it *re-applies* already-durable records.
* **barrier-order**: an acknowledged durability point — any method
  named ``sync`` / ``fsync`` / ``checkpoint`` — must reach a device
  barrier (``storage.sync``, ``device.flush``, a durable
  ``Journal.commit`` or ``wal.flush(durable=True)``) on **all**
  non-raising paths before returning; and a superblock write may
  never happen while node writes are still unflushed (the ping-pong
  slot discipline: flush ``meta.db``/``data.db``, then commit the
  slot).
* **recovery-reads-durable**: code reachable from the recovery entry
  points (``_replay_log``, the ``fsck*`` functions) must not read
  volatile-epoch device state
  (``unflushed`` / ``epoch_records`` / ``sealed_epochs``) — recovery
  must observe only bytes that survive a crash.

The analysis runs on :mod:`repro.check.flow`'s engine (shared with
:mod:`repro.check.conc`): its typed call graph, its ``(family,
method)`` call lookup, and its body walker and summary driver.  It
types no call itself and states only its lattice, its call table and
its rules.  The lattice is :class:`_State`, a small must/may state
whose fields each join by a row of ``_State.JOIN``.  The table is
:data:`CALLS`, the primitive durability events a (receiver family,
method) call stands for.  Each function body is interpreted once; a
callee contributes its memoized summary — the join of its exit states,
the barrier kinds it reaches, and whether it exposes a superblock
write.  Rule 3 is a filter over the recovery closure's typed call
sites.

Known idealizations (backstopped by ``--verify-order-graph``): loops
are assumed to run at least one iteration (the canonical fan-out
shape), exception paths satisfy must-barrier vacuously, recursion
yields an empty summary, and intra-statement call order is
approximate.  False positives carry ``# durflow: allow[reason]``
waivers — same machinery and hygiene rules (``unused-waiver``) as
arch/costflow/conc.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check import costflow, flow

#: Every rule this analyzer can report.
RULES = ("write-ahead", "barrier-order", "recovery-reads-durable", "unused-waiver")

#: Modules exempt from rules 1-2 (test harnesses, the checkers
#: themselves, deliberately-unsafe aging drivers) — shared with
#: costflow, which drew the boundary for the same reason.
EXEMPT_MODULES: Tuple[str, ...] = costflow.EXEMPT_MODULES

#: Volatile-epoch accessors on the device (rule 3 sinks).
VOLATILE_READS: FrozenSet[str] = frozenset({"unflushed", "epoch_records", "sealed_epochs"})

#: The kind :data:`BY_FILE` gives the call's first argument.
FILE = "<file>"

#: Effect and barrier kind of a ``Southbound`` write / sync by file
#: name.  Any other name (``None``: not a constant) is a Bε-tree node
#: file — ``BeTree.write_node`` passes ``self.file_name``; the WAL and
#: the superblock always use literals.
BY_FILE: Dict[str, Dict[Optional[str], str]] = {
    "effect": {"superblock": "sb-write", "log": "wal-write", None: "node-write"},
    "barrier": {"superblock": "sb-sync", "log": "log-sync", None: "tree-sync"},
}

#: ``(family, method)`` -> the primitive events the call stands for, in
#: order.  An event is ``(op, kind)``; a ``durable-barrier`` is a
#: barrier only when the call's ``durable`` argument is absent or a
#: constant ``True``.  A call in the table is not descended into — its
#: events model what it does below — except the KV-env ops (the family
#: in :data:`_DESCEND`), whose summaries still carry barriers and
#: pending effects.  Volatile reads have no event: rule 3 finds them
#: among the call sites.
CALLS: Dict[Tuple[Optional[str], str], Tuple[Tuple[str, Optional[str]], ...]] = {
    **{
        ("env", m): (("env", None),)
        for m in ("insert", "delete", "patch", "range_delete", "sync")
    },
    ("wal", "append"): (("logged", None), ("effect", "wal-append")),
    ("wal", "flush"): (("effect", "wal-write"), ("durable-barrier", "log-sync")),
    ("wal", "truncate"): (("effect", "trim"),),
    **{
        ("tree", m): (("mutate", None),)
        for m in ("put", "delete", "patch", "range_delete")
    },
    ("tree", "write_dirty_nodes"): (("effect", "node-write"),),
    ("tree", "write_node"): (("effect", "node-write"),),
    ("south", "write"): (("effect", FILE),),
    ("south", "sync"): (("barrier", FILE),),
    ("south", "discard"): (("effect", "trim"),),
    ("journal", "commit"): (
        ("effect", "dev-write"), ("durable-barrier", "journal-commit"),
    ),
    ("device", "flush"): (("barrier", "device-flush"),),
    ("device", "write"): (("effect", "dev-write"),),
    ("device", "submit_write"): (("effect", "dev-write"),),
    ("device", "discard"): (("effect", "trim"),),
    **{("device", m): () for m in VOLATILE_READS},
}
_DESCEND = ("env",)

#: Method names that acknowledge durability to a caller (rule 2a).
DURABILITY_ENTRIES: FrozenSet[str] = frozenset({"sync", "fsync", "checkpoint"})

#: Recovery entry points by bare name; ``fsck*`` functions in the
#: fsck module are added by :func:`_recovery_set`.
RECOVERY_ENTRY_NAMES: FrozenSet[str] = frozenset({"_replay_log"})


# ======================================================================
# The static happens-before graph
# ======================================================================
@dataclass
class OrderGraph(flow.EdgeGraph):
    """Static happens-before graph: effect kinds → barrier kinds; one
    witnessed effect→barrier edge per pair (first site wins)."""

    effects: Set[str] = field(default_factory=set)
    barriers: Set[str] = field(default_factory=set)

    def add_edge(
        self, src: str, dst: str, path: str, line: int, func: str
    ) -> None:
        self.effects.add(src)
        self.barriers.add(dst)
        self.add((src, dst), flow.Edge(src, dst, path, line, func))

    def covers(self, effect: str, barrier: str = "flush") -> bool:
        """Is the runtime order ``effect`` before ``barrier`` an
        instance of some static edge?  The runtime observer sees only
        the device-level barrier (``flush``), which every static
        barrier kind lowers to — so ``flush`` matches any sink."""
        for edge in self.edges:
            if edge.src != effect:
                continue
            if barrier in ("flush", "device-flush") or edge.dst == barrier:
                return True
        return False

    def to_dict(self) -> Dict[str, object]:
        return {
            "effects": sorted(self.effects),
            "barriers": sorted(self.barriers),
            "edges": [e.to_dict() for e in self.sorted_edges()],
        }

    def to_dot(self) -> str:
        lines = ["digraph durability {", "  rankdir=LR;"]
        for kind in sorted(self.effects):
            lines.append(f'  "{kind}" [shape=box];')
        for kind in sorted(self.barriers):
            lines.append(f'  "{kind}" [shape=ellipse];')
        for e in self.sorted_edges():
            lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.func}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ======================================================================
# Report
# ======================================================================
@dataclass
class DurflowReport(flow.Report):
    TOOL, NOUN, WHY = "durflow", "durability", "the ordering exception is sound"
    ABOUT = "Whole-program static durability-ordering analysis"
    GRAPH = "order_graph"

    order_graph: OrderGraph = field(default_factory=OrderGraph)
    functions: int = 0
    effect_sites: int = 0
    barrier_sites: int = 0
    entries_checked: int = 0
    recovery_reachable: int = 0

    def stats(self) -> Dict[str, int]:
        return {
            "effect_sites": self.effect_sites,
            "barrier_sites": self.barrier_sites,
            "order_edges": len(self.order_graph.edges),
            "entries_checked": self.entries_checked,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "rules": list(RULES),
            "functions": self.functions,
            "effect_sites": self.effect_sites,
            "barrier_sites": self.barrier_sites,
            "entries_checked": self.entries_checked,
            "recovery_reachable": self.recovery_reachable,
            "order_graph": self.order_graph.to_dict(),
            **super().to_dict(),
        }

    def summary(self) -> str:
        return (
            f"{self.functions} functions, {self.effect_sites} durable-"
            f"effect site(s), {self.barrier_sites} barrier site(s), "
            f"{len(self.order_graph.edges)} order edge(s), "
            f"{self.entries_checked} durability entr(y/ies)"
        )


# ======================================================================
# Abstract state and summaries
# ======================================================================
class _State(flow.State):
    """Abstract durability state at one program point."""

    #: How each field joins where paths meet: a must-fact survives only
    #: if both paths hold it, a may-fact if either does.
    JOIN = {
        "logged": operator.and_,  # must: a WAL append dominates this point
        "barriered": operator.and_,  # must: a barrier dominates this point
        "nodes_dirty": operator.or_,  # may: node writes with no flush since
        "sb_dirty": operator.or_,  # may: a superblock write with no flush since
        "pending": operator.or_,  # may: effect kinds issued since the last barrier
    }
    __slots__ = tuple(JOIN)
    DEFAULT = {**dict.fromkeys(JOIN, False), "pending": set()}
    #: The vacuous state (every must-fact, no may-fact): the exit of a
    #: body whose every path raises.
    UNIT = {"logged": True, "barriered": True}


class _FuncCtx(flow.Context):
    """Per-function interpretation context.  Its summary is the exit
    join, the barrier kinds reached on any path, and whether a
    superblock write no barrier dominates escapes."""

    def __init__(
        self, func: flow.FuncInfo, node: ast.AST, qual: str, exempt: bool, recovery: bool
    ) -> None:
        super().__init__(func, node, qual)
        self.exempt, self.recovery = exempt, recovery
        self.barrier_kinds: Set[str] = set()
        self.exposed_sb_write = False


_ABSENT = object()


def _const_arg(call: ast.Call, pos: int, kw: Optional[str] = None) -> object:
    """The value of ``call``'s argument ``kw`` (or, failing that, the
    one at ``pos``): :data:`_ABSENT` when not passed, ``None`` when not
    a constant."""
    node = next((k.value for k in call.keywords if kw and k.arg == kw), None)
    if node is None and len(call.args) > pos:
        node = call.args[pos]
    if node is None:
        return _ABSENT
    return node.value if isinstance(node, ast.Constant) else None


# ======================================================================
# The interpreter
# ======================================================================
class _Analyzer(flow.Walker):
    """Interprets every function once; memoizes summaries.

    Idealisations: loops are assumed to run at least one iteration
    (:meth:`loop_exit`), and a handler that falls through joins the
    ``try`` body's state (the shared default)."""

    STATE = _State

    def __init__(
        self,
        program: flow.Program,
        report: DurflowReport,
        findings: flow.Findings,
        exempt: Sequence[str],
        recovery: Set[str],
    ) -> None:
        super().__init__(program)
        self.report = report
        self.graph = report.order_graph
        self.findings = findings
        self.exempt = exempt
        self.recovery = recovery

    def _flag(self, ctx: _FuncCtx, line: int, rule: str, message: str) -> None:
        """A finding in the function under ``ctx``, unless it is exempt."""
        if not ctx.exempt:
            self.findings.add(ctx.func.path, line, rule, message)

    # -- summaries -------------------------------------------------------
    def context(self, func: flow.FuncInfo, node: ast.AST, qual: str) -> _FuncCtx:
        return _FuncCtx(
            func, node, qual, flow.is_exempt(func.module, self.exempt),
            func.key in self.recovery,
        )

    def recursion_summary(self, ctx: _FuncCtx) -> None:
        ctx.exit = _State()  # neutral

    def exit_rules(self, ctx: _FuncCtx) -> None:
        func = ctx.func
        # Rule 2a: an acknowledged durability entry must barrier.
        name = func.qualname.split(".")[-1]
        if (
            name in DURABILITY_ENTRIES and func.class_key
            and not (ctx.exempt or ctx.recovery)
        ):
            self.report.entries_checked += 1
            if not ctx.exit.barriered:
                self._flag(
                    ctx, func.line, "barrier-order",
                    f"{func.qualname} acknowledges durability ({name}) but some "
                    "path returns without reaching a device barrier — order the "
                    "flush/sync before the acknowledgement",
                )

    # -- statements ------------------------------------------------------
    def transfer(self, stmt: ast.stmt, state: _State, ctx: _FuncCtx) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are not this path
        if isinstance(stmt, (ast.If, ast.While)):
            parts = [stmt.test]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            parts = [item.context_expr for item in stmt.items]
        elif isinstance(stmt, ast.Raise):
            parts = [stmt.exc]
        else:
            parts = [stmt]
        for part in parts:
            if part is not None:
                self._eval(part, state, ctx)

    def exec_if(
        self, stmt: ast.If, state: _State, ctx: _FuncCtx
    ) -> Optional[_State]:
        then, other = self.fork_if(stmt, state, ctx)
        merged = self.join(then, other)
        # Gate idiom: `if log:` on a bare parameter carries a caller
        # contract — the caller either wants logging (and gets it) or
        # explicitly opted out; the opt-out is checked at call sites
        # via the constant-log=False rule.  The merged state therefore
        # keeps `logged` from whichever branch establishes it.
        if (
            merged is not None
            and isinstance(stmt.test, ast.Name)
            and stmt.test.id in ctx.params
        ):
            merged.logged = any(b is not None and b.logged for b in (then, other))
        return merged

    def exec_for(
        self, stmt, state: _State, ctx: _FuncCtx
    ) -> Optional[_State]:
        self._eval(stmt.iter, state, ctx)
        out = self.exec_block(stmt.body, state.copy(), ctx)
        if stmt.orelse and out is not None:
            out = self.exec_block(stmt.orelse, out, ctx)
        return self.loop_exit(state, out)

    def loop_exit(self, entry: _State, out: Optional[_State]) -> _State:
        # loops are assumed to run >= 1 iteration (fan-out shape); a
        # body that always breaks falls back to the pre-loop state
        return out if out is not None else entry

    # -- calls -----------------------------------------------------------
    def _eval(self, node: ast.AST, state: _State, ctx: _FuncCtx) -> None:
        """Interpret every call in ``node``, in a fixed (approximate) order."""
        stack: List[ast.AST] = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested defs are not this path
            if isinstance(n, ast.Call):
                self._do_call(n, state, ctx)
            stack.extend(ast.iter_child_nodes(n))

    def _do_call(self, call: ast.Call, state: _State, ctx: _FuncCtx) -> None:
        """Apply the :data:`CALLS` events of ``call``, or — when it is
        not in the table or in a :data:`_DESCEND` family — the joined
        summaries of its callees."""
        key = self.program.call_key(call)
        events = CALLS.get(key)
        if events is not None:
            for op, kind in events:
                self._apply_event(op, kind, key[1], call, state, ctx)
            if key[0] not in _DESCEND:
                return
        cands = [
            self.summary(c)
            for c in self.program.typed_call(call).callees
            if c.key != ctx.func.key
        ]
        if cands:
            self._apply_summary(cands, call, state, ctx)

    def _apply_event(
        self, op: str, kind: Optional[str], method: str,
        call: ast.Call, state: _State, ctx: _FuncCtx,
    ) -> None:
        line = call.lineno
        if kind == FILE:
            kind = BY_FILE[op].get(_const_arg(call, 0), BY_FILE[op][None])
        if op == "durable-barrier":
            durable = _const_arg(call, 0, "durable")
            if durable is not True and durable is not _ABSENT:
                return
            op = "barrier"
        if op == "logged":
            state.logged = True
        elif op == "mutate":
            if not state.logged and not ctx.recovery:
                self._flag(
                    ctx, line, "write-ahead",
                    f"{method}() mutates Bε-tree state with no dominating WAL "
                    "append on this path — append the log record first, or "
                    "mark the path as recovery",
                )
        elif op == "effect":
            self.report.effect_sites += 1
            self.graph.effects.add(kind)
            if kind == "sb-write":
                if state.nodes_dirty:
                    self._flag(
                        ctx, line, "barrier-order",
                        "superblock write while node writes are still unflushed "
                        "— flush meta.db/data.db before committing the "
                        "superblock slot (torn checkpoint)",
                    )
                if not state.barriered:
                    ctx.exposed_sb_write = True
                state.sb_dirty = True
            elif kind == "node-write":
                state.nodes_dirty = True
            state.pending.add(kind)
        elif op == "barrier":
            self.report.barrier_sites += 1
            self._reach_barrier(kind, state, ctx, line)
            self._flushed(state)
        elif op == "env":
            # A KV-env op outside recovery may not skip the log.
            if method != "sync" and _const_arg(call, 99, "log") is False and not ctx.recovery:
                self._flag(
                    ctx, line, "write-ahead",
                    f"{method}(log=False) bypasses the write-ahead log outside a "
                    "recovery path — drop the override or route through recovery",
                )

    def _reach_barrier(
        self, kind: str, state: _State, ctx: _FuncCtx, line: int
    ) -> None:
        """A ``kind`` barrier is reached: order every pending effect
        before it."""
        self.graph.barriers.add(kind)
        for p in sorted(state.pending):
            self.graph.add_edge(p, kind, ctx.func.path, line, ctx.func.qualname)
        ctx.barrier_kinds.add(kind)

    @staticmethod
    def _flushed(state: _State) -> None:
        state.pending.clear()
        state.barriered = True
        state.nodes_dirty = False
        state.sb_dirty = False

    def _apply_summary(
        self, cands: List[_FuncCtx], call: ast.Call, state: _State, ctx: _FuncCtx
    ) -> None:
        """Apply the joined summaries of a call's candidate callees."""
        after = self.join_all(c.exit for c in cands)
        kinds = frozenset().union(*(c.barrier_kinds for c in cands))
        if any(c.exposed_sb_write for c in cands) and state.nodes_dirty:
            self._flag(
                ctx, call.lineno, "barrier-order",
                "call writes the superblock while this function holds unflushed "
                "node writes — flush meta.db/data.db before the checkpoint commit",
            )
        for kind in sorted(kinds):
            self._reach_barrier(kind, state, ctx, call.lineno)
        if after.barriered and kinds:
            self._flushed(state)
        state.pending |= after.pending
        state.nodes_dirty |= after.nodes_dirty
        state.sb_dirty |= after.sb_dirty


# ======================================================================
# Rule 3: recovery reachability
# ======================================================================
def _recovery_set(program: flow.Program) -> Dict[str, Optional[str]]:
    """The call-graph closure of the recovery entry points, as a
    ``{reachable function key: parent key}`` map (entries map to None)."""
    fsck_mod = f"{program.package}.check.fsck"
    entries = [
        func.key
        for func in program.functions.values()
        if (name := func.qualname.split(".")[-1]) in RECOVERY_ENTRY_NAMES
        or (func.module == fsck_mod and name.startswith("fsck"))
    ]
    return flow.reach(entries, lambda key: program.functions[key].calls)


# ======================================================================
# Driver
# ======================================================================
def analyze(
    root: Optional[str] = None,
    package: str = "repro",
    exempt: Sequence[str] = EXEMPT_MODULES,
    program: Optional[flow.Program] = None,
) -> DurflowReport:
    program = program or flow.load_program(root, package)
    package = program.package
    waivers = program.waivers("durflow")
    report = DurflowReport()
    report.functions = len(program.functions)
    findings = flow.Findings()

    recovery = _recovery_set(program)
    report.recovery_reachable = len(recovery)
    analyzer = _Analyzer(program, report, findings, exempt, set(recovery))
    for func in program.functions_in_order():
        analyzer.summary(func)

    # Rule 3: the device's volatile accessors among the recovery
    # closure's call sites.  The device layer itself (which implements
    # the volatile cache) and crashmc (which deliberately inspects it
    # to build crash images) are structural exceptions.
    rule4_exempt = (f"{package}.crashmc", f"{package}.device")
    for key in sorted(recovery):
        func = program.functions[key]
        if flow.is_exempt(func.module, rule4_exempt):
            continue
        for site in func.sites:
            if (
                site.name not in VOLATILE_READS
                or program.family(site.receivers) != "device"
            ):
                continue
            chain = " <- ".join(
                program.functions[k].qualname
                for k in flow.chain(recovery, key)[:12]
            )
            findings.add(
                func.path,
                site.line,
                "recovery-reads-durable",
                f"{sorted(site.receivers)[0]}.{site.name}() reads volatile-"
                f"epoch device state on a recovery path ({chain}) — "
                "recovery must observe only durable bytes",
            )

    report.finish(findings, waivers)
    return report
