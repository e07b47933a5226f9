"""Whole-program static durability-ordering analysis.

``python -m repro.check durflow`` proves — over the whole call graph,
not per-run — the ordering disciplines the paper's crash-consistency
story rests on.  ``repro.crashmc`` checks them dynamically on the
crash states a bounded budget happens to reach; this pass checks them
on *every* static path, and emits the happens-before graph the
runtime backstop (``harness torture --verify-order-graph``) checks
observed orderings against.

Four rule families:

* **write-ahead**: every path that mutates in-place Bε-tree state
  (``BeTree.put/delete/patch/range_delete``) must be dominated by the
  corresponding WAL append on that path, and no call site outside a
  recovery path may pass a constant ``log=False`` to a KV-env
  mutator.  Recovery code (WAL replay, intent resolution, fsck) is
  the sanctioned exception: it *re-applies* already-durable records.
* **barrier-order**: an acknowledged durability point — any method
  named ``sync`` / ``fsync`` / ``checkpoint`` — must reach a device
  barrier (``storage.sync``, ``device.flush``, a durable
  ``Journal.commit`` or ``wal.flush(durable=True)``) on **all**
  non-raising paths before returning; and a superblock write may
  never happen while node writes are still unflushed (the ping-pong
  slot discipline: flush ``meta.db``/``data.db``, then commit the
  slot).
* **intent-protocol**: the cross-shard rename coordinator (any
  function building a ``pack_intent(...)`` record) must follow its
  declared state machine — durable intent (coordinator insert + sync)
  → apply → **sorted** per-shard sync fan-out → unsynced resolve
  (delete) — checked as an interprocedural order over the protocol's
  KV-env sink calls.
* **recovery-reads-durable**: code reachable from the recovery entry
  points (``resolve_intents``, ``_replay_log``, the ``fsck*``
  functions) must not read volatile-epoch device state
  (``unflushed`` / ``epoch_records`` / ``sealed_epochs``) — recovery
  must observe only bytes that survive a crash.

The analysis runs on :mod:`repro.check.flow`'s typed call graph
(module-qualified functions, annotation-driven receiver resolution,
virtual dispatch over the class hierarchy) and its body walker, which
:mod:`repro.check.conc` shares: each function body
is interpreted once over a small must/may state (``logged``,
``barriered``, ``nodes_dirty``, pending effect kinds, protocol
phase), and callees contribute memoized summaries (must-barrier,
barrier kinds, exit-pending effects, exposed superblock writes).

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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check import costflow, flow
from repro.check.costflow import _is_exempt

#: Every rule this analyzer can report.
RULES = (
    "write-ahead",
    "barrier-order",
    "intent-protocol",
    "recovery-reads-durable",
    "unused-waiver",
)

#: Modules exempt from rules 1-3 (test harnesses, the checkers
#: themselves, deliberately-unsafe aging drivers) — shared with
#: costflow, which drew the boundary for the same reason.
EXEMPT_MODULES: Tuple[str, ...] = costflow.EXEMPT_MODULES

#: Root class names anchoring receiver classification; the transitive
#: subclass closure of each is computed from the program under
#: analysis, so fixture trees only need classes *named* like these.
WAL_ROOTS = ("WriteAheadLog",)
TREE_ROOTS = ("BeTree",)
SOUTH_ROOTS = ("Southbound",)
DEVICE_ROOTS = ("BlockDevice",)
JOURNAL_ROOTS = ("Journal",)
ENV_ROOTS = ("KVEnv", "ShardedEnv")

#: In-place Bε-tree mutators (rule 1 subjects).
TREE_MUTATORS: FrozenSet[str] = frozenset(
    {"put", "delete", "patch", "range_delete"}
)

#: KV-env mutators (rule 1 ``log=False`` check + rule 3 protocol ops).
ENV_MUTATORS: FrozenSet[str] = frozenset(
    {"insert", "delete", "patch", "range_delete"}
)

#: Volatile-epoch accessors on the device (rule 4 sinks).
VOLATILE_READS: FrozenSet[str] = frozenset(
    {"unflushed", "epoch_records", "sealed_epochs"}
)

#: Method names that acknowledge durability to a caller (rule 2a).
DURABILITY_ENTRIES: FrozenSet[str] = frozenset(
    {"sync", "fsync", "checkpoint"}
)

#: Recovery entry points by bare name; ``fsck*`` functions in the
#: fsck module are added by :func:`_recovery_set`.
RECOVERY_ENTRY_NAMES: FrozenSet[str] = frozenset(
    {"resolve_intents", "_replay_log"}
)

#: Durable-effect kinds (graph sources) and barrier kinds (sinks).
EFFECT_KINDS = (
    "wal-append", "wal-write", "node-write", "sb-write", "trim",
    "dev-write", "intent-put",
)
BARRIER_KINDS = (
    "log-sync", "tree-sync", "sb-sync", "device-flush", "journal-commit",
)


# ======================================================================
# The static happens-before graph
# ======================================================================
@dataclass
class OrderEdge:
    """One witnessed effect→barrier ordering (first site wins)."""

    src: str
    dst: str
    path: str
    line: int
    func: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "src": self.src,
            "dst": self.dst,
            "path": self.path,
            "line": self.line,
            "func": self.func,
        }


@dataclass
class OrderGraph:
    """Static happens-before graph: effect kinds → barrier kinds."""

    effects: Set[str] = field(default_factory=set)
    barriers: Set[str] = field(default_factory=set)
    edges: List[OrderEdge] = field(default_factory=list)
    _seen: Set[Tuple[str, str]] = field(default_factory=set)

    def add_effect(self, kind: str) -> None:
        self.effects.add(kind)

    def add_barrier(self, kind: str) -> None:
        self.barriers.add(kind)

    def add_edge(
        self, src: str, dst: str, path: str, line: int, func: str
    ) -> None:
        self.effects.add(src)
        self.barriers.add(dst)
        if (src, dst) in self._seen:
            return
        self._seen.add((src, dst))
        self.edges.append(OrderEdge(src, dst, path, line, func))

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
            "edges": [
                e.to_dict()
                for e in sorted(
                    self.edges, key=lambda e: (e.src, e.dst, e.path, e.line)
                )
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph durability {", "  rankdir=LR;"]
        for kind in sorted(self.effects):
            lines.append(f'  "{kind}" [shape=box];')
        for kind in sorted(self.barriers):
            lines.append(f'  "{kind}" [shape=ellipse];')
        for e in sorted(self.edges, key=lambda e: (e.src, e.dst)):
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
    coordinators: int = 0
    recovery_reachable: int = 0

    def stats(self) -> Dict[str, int]:
        return {
            "effect_sites": self.effect_sites,
            "barrier_sites": self.barrier_sites,
            "order_edges": len(self.order_graph.edges),
            "entries_checked": self.entries_checked,
            "coordinators": self.coordinators,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "rules": list(RULES),
            "functions": self.functions,
            "effect_sites": self.effect_sites,
            "barrier_sites": self.barrier_sites,
            "entries_checked": self.entries_checked,
            "coordinators": self.coordinators,
            "recovery_reachable": self.recovery_reachable,
            "order_graph": self.order_graph.to_dict(),
            **super().to_dict(),
        }

    def summary(self) -> str:
        return (
            f"{self.functions} functions, {self.effect_sites} durable-"
            f"effect site(s), {self.barrier_sites} barrier site(s), "
            f"{len(self.order_graph.edges)} order edge(s), "
            f"{self.entries_checked} durability entr(y/ies), "
            f"{self.coordinators} coordinator(s)"
        )


# ======================================================================
# Abstract state and summaries
# ======================================================================
class _State:
    """Abstract durability state at one program point."""

    __slots__ = (
        "logged", "barriered", "nodes_dirty", "sb_dirty", "pending",
        "coord", "phase", "apply_dirty", "vars",
    )

    def __init__(self) -> None:
        #: must: a WAL append dominates this point
        self.logged = False
        #: must: a barrier dominates this point
        self.barriered = False
        #: may: node writes issued with no flush since
        self.nodes_dirty = False
        #: may: a superblock write issued with no flush since
        self.sb_dirty = False
        #: may: effect kinds issued since the last barrier
        self.pending: Set[str] = set()
        #: this path built a cross-shard intent (rule 3)
        self.coord = False
        #: protocol phase: 0 none, 1 intent written, 2 intent durable
        self.phase = 0
        #: may: applied batch not yet synced
        self.apply_dirty = False
        #: local type environment (``flow.Program.eval`` shape)
        self.vars: Dict[str, flow.Typed] = {}

    def copy(self) -> "_State":
        new = _State()
        new.logged = self.logged
        new.barriered = self.barriered
        new.nodes_dirty = self.nodes_dirty
        new.sb_dirty = self.sb_dirty
        new.pending = set(self.pending)
        new.coord = self.coord
        new.phase = self.phase
        new.apply_dirty = self.apply_dirty
        new.vars = dict(self.vars)
        return new

    def merge(self, other: "_State") -> "_State":
        new = _State()
        new.logged = self.logged and other.logged
        new.barriered = self.barriered and other.barriered
        new.nodes_dirty = self.nodes_dirty or other.nodes_dirty
        new.sb_dirty = self.sb_dirty or other.sb_dirty
        new.pending = self.pending | other.pending
        new.coord = self.coord or other.coord
        new.phase = min(self.phase, other.phase)
        new.apply_dirty = self.apply_dirty or other.apply_dirty
        new.vars = {
            k: v for k, v in self.vars.items() if other.vars.get(k) == v
        }
        return new


class _Summary:
    """Interprocedural function summary (memoized)."""

    __slots__ = (
        "must_barrier", "barrier_kinds", "exit_pending",
        "exit_nodes_dirty", "exit_sb_dirty", "exposed_sb_write",
    )

    def __init__(self) -> None:
        self.must_barrier = False
        self.barrier_kinds: Set[str] = set()
        self.exit_pending: Set[str] = set()
        self.exit_nodes_dirty = False
        self.exit_sb_dirty = False
        self.exposed_sb_write = False


def _merge_summaries(cands: List[_Summary]) -> _Summary:
    out = _Summary()
    out.must_barrier = all(s.must_barrier for s in cands)
    for s in cands:
        out.barrier_kinds |= s.barrier_kinds
        out.exit_pending |= s.exit_pending
        out.exit_nodes_dirty = out.exit_nodes_dirty or s.exit_nodes_dirty
        out.exit_sb_dirty = out.exit_sb_dirty or s.exit_sb_dirty
        out.exposed_sb_write = out.exposed_sb_write or s.exposed_sb_write
    return out


class _FuncCtx:
    """Per-function interpretation context."""

    __slots__ = (
        "func", "param_names", "exempt", "recovery", "exits",
        "loop_sorted", "barrier_kinds", "exposed_sb_write", "is_coord",
    )

    def __init__(self, func, exempt: bool, recovery: bool) -> None:
        self.func = func
        args = func.node.args
        self.param_names = {
            a.arg
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg,
            )
            if a is not None
        }
        self.exempt = exempt
        self.recovery = recovery
        self.exits: List[Tuple[_State, int]] = []
        self.loop_sorted: List[bool] = []
        self.barrier_kinds: Set[str] = set()
        self.exposed_sb_write = False
        self.is_coord = False


# ======================================================================
# Constant-argument helpers
# ======================================================================
def _arg_node(call: ast.Call, pos: int, kw: str) -> Optional[ast.expr]:
    for k in call.keywords:
        if k.arg == kw:
            return k.value
    if len(call.args) > pos:
        return call.args[pos]
    return None


def _const_bool(
    call: ast.Call, pos: int, kw: str, default: Optional[bool]
) -> Optional[bool]:
    """Constant value of a bool argument; ``default`` when absent,
    ``None`` when present but not a constant."""
    node = _arg_node(call, pos, kw)
    if node is None:
        return default
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    return None


def _const_str(call: ast.Call, pos: int) -> Optional[str]:
    if len(call.args) > pos:
        node = call.args[pos]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
    return None


def _write_kind(name: Optional[str]) -> str:
    """Effect kind of a ``storage.write(name, ...)``.  A non-constant
    file name is a Bε-tree node write (``BeTree.write_node`` passes
    ``self.file_name``); the WAL and superblock always use literals."""
    if name == "superblock":
        return "sb-write"
    if name == "log":
        return "wal-write"
    return "node-write"


def _sync_kind(name: Optional[str]) -> str:
    if name == "superblock":
        return "sb-sync"
    if name == "log":
        return "log-sync"
    return "tree-sync"


def _subclass_names(program, roots: Sequence[str]) -> Set[str]:
    """Bare names of every class in the transitive subclass closure of
    any class named like one of ``roots``."""
    out: Set[str] = set(roots)
    for key, cls in program.classes.items():
        if cls.name in roots:
            for sub in program.subclasses.get(key, {key}):
                sc = program.classes.get(sub)
                if sc is not None:
                    out.add(sc.name)
    return out


# ======================================================================
# The interpreter
# ======================================================================
class _Analyzer(flow.Walker):
    """Interprets every function once; memoizes summaries.

    Idealisations: loops are assumed to run at least one iteration
    (:meth:`loop_exit`), and a handler that falls through joins the
    ``try`` body's state (the shared default)."""

    def __init__(
        self,
        program: flow.Program,
        report: DurflowReport,
        findings: flow.Findings,
        exempt: Sequence[str],
        recovery: Set[str],
    ) -> None:
        super().__init__()
        self.program = program
        self.report = report
        self.graph = report.order_graph
        self.findings = findings
        self.exempt = exempt
        self.recovery = recovery
        self.volatile_sites: Dict[str, List[Tuple[int, str]]] = {}
        self.wal_names = _subclass_names(program, WAL_ROOTS)
        self.tree_names = _subclass_names(program, TREE_ROOTS)
        self.south_names = _subclass_names(program, SOUTH_ROOTS)
        self.device_names = _subclass_names(program, DEVICE_ROOTS)
        self.journal_names = _subclass_names(program, JOURNAL_ROOTS)
        self.env_names = _subclass_names(program, ENV_ROOTS)

    # -- summaries -------------------------------------------------------
    def recursion_summary(self) -> _Summary:
        return _Summary()  # recursion -> neutral summary

    def summarize(self, key: str, func: flow.FuncInfo) -> _Summary:
        ctx = _FuncCtx(
            func,
            exempt=_is_exempt(func.module, self.exempt),
            recovery=key in self.recovery,
        )
        state = _State()
        state.vars = dict(self.program.param_env(func))
        exits = [e for e, _line in self.walk_body(func.node.body, state, ctx)]
        summary = _Summary()
        # all-paths-raise bodies (abstract methods) pass vacuously
        summary.must_barrier = all(e.barriered for e in exits)
        summary.barrier_kinds = set(ctx.barrier_kinds)
        if exits:
            summary.exit_pending = set().union(*(e.pending for e in exits))
        summary.exit_nodes_dirty = any(e.nodes_dirty for e in exits)
        summary.exit_sb_dirty = any(e.sb_dirty for e in exits)
        summary.exposed_sb_write = ctx.exposed_sb_write
        self._check_entry(func, ctx, summary)
        self._check_coord_exit(func, exits, ctx)
        if ctx.is_coord:
            self.report.coordinators += 1
        return summary

    def _check_entry(self, func, ctx: _FuncCtx, summary: _Summary) -> None:
        """Rule 2a: acknowledged durability entries must barrier."""
        name = func.qualname.split(".")[-1]
        if name not in DURABILITY_ENTRIES or not func.class_key:
            return
        if ctx.exempt or ctx.recovery:
            return
        self.report.entries_checked += 1
        if not summary.must_barrier:
            self.findings.add(
                func.path,
                func.line,
                "barrier-order",
                f"{func.qualname} acknowledges durability ({name}) but "
                "some path returns without reaching a device barrier — "
                "order the flush/sync before the acknowledgement",
            )

    def _check_coord_exit(
        self, func, exits: List[_State], ctx: _FuncCtx
    ) -> None:
        """Rule 3: coordinator exit obligations."""
        if ctx.exempt:
            return
        for e in exits:
            if e.coord and e.phase < 2:
                self.findings.add(
                    func.path,
                    func.line,
                    "intent-protocol",
                    f"{func.qualname} returns before the intent record "
                    "is durable — sync the coordinator volume after "
                    "writing the intent",
                )
                break
        for e in exits:
            if e.coord and e.apply_dirty:
                self.findings.add(
                    func.path,
                    func.line,
                    "intent-protocol",
                    f"{func.qualname} returns with the applied batch "
                    "unsynced — sync the destination volumes before "
                    "resolving the intent",
                )
                break

    # -- statements ------------------------------------------------------
    def transfer(self, stmt: ast.stmt, state: _State, ctx: _FuncCtx) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs are not this path
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval_calls(stmt.value, state, ctx)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval_calls(stmt.exc, state, ctx)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval_calls(stmt.test, state, ctx)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval_calls(item.context_expr, state, ctx)
            self.program.bind(stmt, ctx.func, state.vars)
        else:
            # Assign, AnnAssign, Expr, AugAssign, Assert, Delete, ... :
            # interpret any calls inside, then let an assignment refine
            # the local types.
            self._eval_calls(stmt, state, ctx)
            self.program.bind(stmt, ctx.func, state.vars)

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
            and stmt.test.id in ctx.param_names
        ):
            merged.logged = any(b is not None and b.logged for b in (then, other))
        return merged

    def exec_for(
        self, stmt, state: _State, ctx: _FuncCtx
    ) -> Optional[_State]:
        self._eval_calls(stmt.iter, state, ctx)
        body_state = state.copy()
        self.program.bind(stmt, ctx.func, body_state.vars)
        is_sorted = (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "sorted"
        )
        ctx.loop_sorted.append(is_sorted)
        out = self.exec_block(stmt.body, body_state, ctx)
        ctx.loop_sorted.pop()
        if stmt.orelse and out is not None:
            out = self.exec_block(stmt.orelse, out, ctx)
        return self.loop_exit(state, out)

    def exec_while(
        self, stmt: ast.While, state: _State, ctx: _FuncCtx
    ) -> Optional[_State]:
        ctx.loop_sorted.append(True)  # whiles are not fan-out loops
        out = super().exec_while(stmt, state, ctx)
        ctx.loop_sorted.pop()
        return out

    def loop_exit(self, entry: _State, out: Optional[_State]) -> _State:
        # loops are assumed to run >= 1 iteration (fan-out shape); a
        # body that always breaks falls back to the pre-loop state
        return out if out is not None else entry

    # -- calls -----------------------------------------------------------
    def _eval_calls(self, node: ast.AST, state: _State, ctx: _FuncCtx) -> None:
        for call in self._calls_in(node):
            self._do_call(call, state, ctx)

    @staticmethod
    def _calls_in(node: ast.AST) -> List[ast.Call]:
        out: List[ast.Call] = []
        stack: List[ast.AST] = [node]
        while stack:
            n = stack.pop()
            if isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # nested defs are not this path
            if isinstance(n, ast.Call):
                out.append(n)
            stack.extend(ast.iter_child_nodes(n))
        return out

    def _do_call(self, call: ast.Call, state: _State, ctx: _FuncCtx) -> None:
        events, descend = self._classify(call, state, ctx)
        for ev in events:
            self._apply_event(ev, call, state, ctx)
        if events and not descend:
            return
        callees = self.program.resolve_call(call, ctx.func, state.vars)
        cands = [
            self.summary(c.key, c) for c in callees if c.key != ctx.func.key
        ]
        if not cands:
            return
        self._apply_summary(_merge_summaries(cands), call, state, ctx)

    def _classify(
        self, call: ast.Call, state: _State, ctx: _FuncCtx
    ) -> Tuple[List[tuple], bool]:
        """Map a call to primitive durability events.

        Returns ``(events, descend)``; a primitive call is *not*
        descended into (its device-level consequences are modeled by
        the event), except the KV-env protocol ops, whose summaries
        still carry the barrier/pending information."""
        f = call.func
        if isinstance(f, ast.Name):
            if f.id == "pack_intent":
                return [("coord",)], True
            return [], True
        if not isinstance(f, ast.Attribute):
            return [], True
        names = self.program.receiver_class_names(call, ctx.func, state.vars)
        if not names:
            return [], True
        m = f.attr
        if names & self.env_names:
            if m in ENV_MUTATORS:
                log = _const_bool(call, 99, "log", default=True)
                return [("env-mutate", m, log)], True
            if m == "sync":
                return [("env-sync",)], True
            return [], True
        if names & self.wal_names:
            if m == "append":
                return [("append",)], False
            if m == "flush":
                if _const_bool(call, 0, "durable", default=True) is True:
                    return [
                        ("effect", "wal-write"), ("barrier", "log-sync")
                    ], False
                return [("effect", "wal-write")], False
            if m == "truncate":
                return [("effect", "trim")], False
            return [], True
        if names & self.tree_names:
            if m in TREE_MUTATORS:
                return [("mutate", m)], False
            if m in ("write_dirty_nodes", "write_node"):
                return [("effect", "node-write")], False
            return [], True
        if names & self.south_names:
            if m == "write":
                return [("effect", _write_kind(_const_str(call, 0)))], False
            if m == "sync":
                return [("barrier", _sync_kind(_const_str(call, 0)))], False
            if m == "discard":
                return [("effect", "trim")], False
            return [], True
        if names & self.journal_names:
            if m == "commit":
                if _const_bool(call, 0, "durable", default=True) is True:
                    return [
                        ("effect", "dev-write"),
                        ("barrier", "journal-commit"),
                    ], False
                return [("effect", "dev-write")], False
            return [], True
        if names & self.device_names:
            if m == "flush":
                return [("barrier", "device-flush")], False
            if m in ("write", "submit_write"):
                return [("effect", "dev-write")], False
            if m == "discard":
                return [("effect", "trim")], False
            if m in VOLATILE_READS:
                return [
                    ("volatile-read", f"{sorted(names)[0]}.{m}()")
                ], False
            return [], True
        return [], True

    def _apply_event(
        self, ev: tuple, call: ast.Call, state: _State, ctx: _FuncCtx
    ) -> None:
        kind = ev[0]
        func = ctx.func
        line = call.lineno
        if kind == "coord":
            state.coord = True
            state.phase = 0
            ctx.is_coord = True
        elif kind == "append":
            state.logged = True
            state.pending.add("wal-append")
            self.graph.add_effect("wal-append")
            self.report.effect_sites += 1
        elif kind == "mutate":
            if not state.logged and not ctx.exempt and not ctx.recovery:
                self.findings.add(
                    func.path,
                    line,
                    "write-ahead",
                    f"{ev[1]}() mutates Bε-tree state with no dominating "
                    "WAL append on this path — append the log record "
                    "first, or mark the path as recovery",
                )
        elif kind == "effect":
            ek = ev[1]
            self.report.effect_sites += 1
            self.graph.add_effect(ek)
            if ek == "sb-write":
                if state.nodes_dirty and not ctx.exempt:
                    self.findings.add(
                        func.path,
                        line,
                        "barrier-order",
                        "superblock write while node writes are still "
                        "unflushed — flush meta.db/data.db before "
                        "committing the superblock slot (torn checkpoint)",
                    )
                if not state.barriered:
                    ctx.exposed_sb_write = True
                state.sb_dirty = True
            elif ek == "node-write":
                state.nodes_dirty = True
            state.pending.add(ek)
        elif kind == "barrier":
            bk = ev[1]
            self.report.barrier_sites += 1
            self.graph.add_barrier(bk)
            for p in sorted(state.pending):
                self.graph.add_edge(p, bk, func.path, line, func.qualname)
            state.pending.clear()
            state.barriered = True
            state.nodes_dirty = False
            state.sb_dirty = False
            ctx.barrier_kinds.add(bk)
        elif kind == "env-mutate":
            self._apply_env_mutate(ev, call, state, ctx)
        elif kind == "env-sync":
            if state.coord:
                if (
                    ctx.loop_sorted
                    and ctx.loop_sorted[-1] is False
                    and state.phase >= 1
                    and not ctx.exempt
                ):
                    self.findings.add(
                        func.path,
                        line,
                        "intent-protocol",
                        "shard fan-out sync iterates an unsorted "
                        "sequence — iterate sorted(...) so the "
                        "apply/sync order is deterministic",
                    )
                if state.phase == 1:
                    state.phase = 2
                state.apply_dirty = False
        elif kind == "volatile-read":
            self.volatile_sites.setdefault(func.key, []).append(
                (line, ev[1])
            )

    def _apply_env_mutate(
        self, ev: tuple, call: ast.Call, state: _State, ctx: _FuncCtx
    ) -> None:
        m, log_const = ev[1], ev[2]
        func = ctx.func
        line = call.lineno
        if log_const is False and not ctx.exempt and not ctx.recovery:
            self.findings.add(
                func.path,
                line,
                "write-ahead",
                f"{m}(log=False) bypasses the write-ahead log outside a "
                "recovery path — drop the override or route through "
                "recovery",
            )
        if not state.coord:
            return
        if m == "insert":
            if state.phase == 0:
                state.phase = 1
                state.pending.add("intent-put")
                self.graph.add_effect("intent-put")
            elif state.phase == 1:
                if not ctx.exempt:
                    self.findings.add(
                        func.path,
                        line,
                        "intent-protocol",
                        "apply insert before the intent record is "
                        "durable — sync the coordinator volume first",
                    )
                state.phase = 2
                state.apply_dirty = True
            else:
                state.apply_dirty = True
        elif m == "delete":
            if state.phase < 2:
                if not ctx.exempt:
                    self.findings.add(
                        func.path,
                        line,
                        "intent-protocol",
                        "resolve (delete) before the intent record is "
                        "durable — the crash window would lose the rename",
                    )
                state.phase = 2
            elif state.apply_dirty:
                if not ctx.exempt:
                    self.findings.add(
                        func.path,
                        line,
                        "intent-protocol",
                        "resolve (delete) before the applied batch is "
                        "synced — sync the destination volumes first",
                    )
                state.apply_dirty = False
        else:  # patch / range_delete are apply-phase ops
            if state.phase == 1:
                if not ctx.exempt:
                    self.findings.add(
                        func.path,
                        line,
                        "intent-protocol",
                        "apply before the intent record is durable — "
                        "sync the coordinator volume first",
                    )
                state.phase = 2
            if state.phase >= 1:
                state.apply_dirty = True

    def _apply_summary(
        self, summary: _Summary, call: ast.Call, state: _State, ctx: _FuncCtx
    ) -> None:
        func = ctx.func
        if summary.exposed_sb_write and state.nodes_dirty and not ctx.exempt:
            self.findings.add(
                func.path,
                call.lineno,
                "barrier-order",
                "call writes the superblock while this function holds "
                "unflushed node writes — flush meta.db/data.db before "
                "the checkpoint commit",
            )
        if summary.barrier_kinds:
            for bk in sorted(summary.barrier_kinds):
                self.graph.add_barrier(bk)
                for p in sorted(state.pending):
                    self.graph.add_edge(
                        p, bk, func.path, call.lineno, func.qualname
                    )
            ctx.barrier_kinds.update(summary.barrier_kinds)
        if summary.must_barrier and summary.barrier_kinds:
            state.pending.clear()
            state.barriered = True
            state.nodes_dirty = False
            state.sb_dirty = False
        state.pending |= summary.exit_pending
        if summary.exit_nodes_dirty:
            state.nodes_dirty = True
        if summary.exit_sb_dirty:
            state.sb_dirty = True


# ======================================================================
# Rule 4: recovery reachability
# ======================================================================
def _recovery_set(program: flow.Program) -> Dict[str, Optional[str]]:
    """The call-graph closure of the recovery entry points, as a
    ``{reachable function key: parent key}`` map (entries map to None)."""
    fsck_mod = f"{program.package}.check.fsck"
    entries: List[str] = []
    for func in program.functions.values():
        name = func.qualname.split(".")[-1]
        if name in RECOVERY_ENTRY_NAMES:
            entries.append(func.key)
        elif func.module == fsck_mod and name.startswith("fsck"):
            entries.append(func.key)
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
        analyzer.summary(func.key, func)

    # Rule 4 findings.  The device layer itself (which implements the
    # volatile cache) and crashmc (which deliberately inspects it to
    # build crash images) are structural exceptions.
    rule4_exempt = (f"{package}.crashmc", f"{package}.device")
    for key in sorted(recovery):
        func = program.functions[key]
        if _is_exempt(func.module, rule4_exempt):
            continue
        for line, rendered in analyzer.volatile_sites.get(key, []):
            chain = " <- ".join(
                program.functions[k].qualname
                for k in flow.chain(recovery, key)[:12]
            )
            findings.add(
                func.path,
                line,
                "recovery-reads-durable",
                f"{rendered} reads volatile-epoch device state on a "
                f"recovery path ({chain}) — "
                "recovery must observe only durable bytes",
            )

    report.finish(findings, waivers)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point used by ``python -m repro.check durflow``."""
    return flow.run_cli(DurflowReport, analyze, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
