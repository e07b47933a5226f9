"""Whole-program static concurrency analysis for the scheduler era.

``python -m repro.check conc`` proves — over the whole call graph, not
per-run — the four disciplines that keep `repro.sched` deterministic
and deadlock-free (PR 7 enforces them only on the paths a given seed
happens to execute):

* **lock-order** (``lock-cycle``): every multi-lock acquisition path
  must follow the sorted-key discipline.  Lock keys are abstracted to
  *lock classes* — a constant key is its own exact class, an f-string
  key collapses to its constant prefix (``f"folder:{f:02d}"`` →
  ``folder:``), a helper call is chased to its return expression, and
  anything else is the wildcard class ``*``.  Acquire sites build a
  *may-hold-while-acquiring* graph over classes; a cycle is reported
  unless every edge in it was acquired by iterating a ``sorted(...)``
  key sequence (string sort is one global total order, so sorted-loop
  acquisition can never deadlock against itself).
* **yield-discipline** (``critical-yield``, ``lock-leak``): a
  structural abstract interpretation of every function body proves no
  suspension point (``yield`` / ``yield from ctx.run(...)`` /
  ``yield from ctx.acquire(...)``) is reachable while the KV env's
  critical-section depth is positive, and that every ``ctx.acquire``
  dominates a matching ``ctx.release`` on all non-exception exits.
  Helper generators driven via ``yield from helper(ctx, ...)`` are
  summarized interprocedurally (classes acquired, net held delta,
  may-suspend).
* **signal-placement** (``signal-misplaced``, ``signal-unguarded``):
  ``BlockSignal`` fires may only occur in modules at or below the
  layer :data:`SIGNAL_LAYERS` assigns the kind, and every fire site
  must sit under the ``<receiver> is not None`` fast-path guard so
  sequential (unscheduled) runs stay one-attribute-read cheap.
* **session-purity** (``conc-impure``): code reachable from
  ``SessionContext.run``/``acquire``/``release``/``op_done`` through
  the typed call graph must not assign attributes of scheduler-global
  state (:data:`STATE_CLASS_NAMES`) except inside the sink set
  (:data:`SINK_METHODS`) or a constructor.

The first three are one walk of each function body (:class:`_LockAnalyzer`
on :mod:`repro.check.flow`'s walker); a helper's callees are the ones
the typed call graph recorded.  Known idealizations (shared with the
runtime cross-check in ``harness mt --verify-lock-graph``, which
backstops them): loops over a recognized key sequence are assumed to
drain it fully (the canonical acquire-all / release-all shape);
exception paths are exempt from ``lock-leak``; recursion between
helper generators yields an empty summary; a signal fire in a
statement the walk never reaches (after a ``return``, in a
``while ... else``) is not checked.

False positives carry ``# conc: allow[reason]`` waivers — same
machinery and hygiene rules (``unused-waiver``) as arch/costflow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check import flow
from repro.check.arch import LAYER_MANIFEST, classify
from repro.check.waivers import WaiverSet

#: Every rule this analyzer can report.
RULES = (
    "lock-cycle",
    "critical-yield",
    "lock-leak",
    "signal-misplaced",
    "signal-unguarded",
    "conc-impure",
    "unused-waiver",
)

#: Wildcard lock class: a key the abstraction cannot classify.
UNKNOWN = ("*", False)

#: The binding of a local name read from a ``block_signal`` attribute.
_SIGNAL = ("signal",)

#: BlockSignal kind -> the arch-manifest layer that owns it.  A fire
#: site may live in the owning layer or any layer *below* it (higher
#: manifest rank); firing from above means a layer is reporting a
#: blocking point it cannot know about.
SIGNAL_LAYERS: Dict[str, str] = {
    "pagecache_miss": "vfs",
    "writeback": "vfs",
    "fsync": "vfs",
    "tree_io": "core",
    "journal_commit": "core",
    "lock_wait": "sched",
}

#: Scheduler-global state: mutating an attribute of one of these from
#: session-reachable code (outside the sinks) breaks determinism.
STATE_CLASS_NAMES: FrozenSet[str] = frozenset(
    {"Scheduler", "Session", "SessionLock", "LockTable", "BlockSignal"}
)

#: The sink set: the only (class, method) pairs reachable from a
#: session that may legitimately mutate scheduler-global state.
SINK_METHODS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("SessionContext", "run"),
        ("SessionContext", "acquire"),
        ("SessionContext", "release"),
        ("SessionContext", "op_done"),
        ("Scheduler", "wake_lock_waiter"),
        ("Scheduler", "note_op_done"),
        ("SessionLock", "try_take"),
        ("SessionLock", "enqueue"),
        ("SessionLock", "release"),
        ("LockTable", "get"),
        ("BlockSignal", "note"),
        ("Session", "note_wait"),
        ("Session", "note_block"),
    }
)

#: Session entry points: the generator primitives scripts drive.
ENTRY_METHODS: Tuple[Tuple[str, str], ...] = (
    ("SessionContext", "run"),
    ("SessionContext", "acquire"),
    ("SessionContext", "release"),
    ("SessionContext", "op_done"),
)

#: Held-count saturation: "acquired an unbounded number of times".
_MANY = 2


# ======================================================================
# Lock graph
# ======================================================================
@dataclass
class LockEdge:
    """One may-hold-while-acquiring edge between lock classes."""

    src: str
    dst: str
    ordered: bool  # acquired by iterating a sorted(...) key sequence
    path: str
    line: int
    func: str  # "module:qualname" of the acquire site
    chain: str = ""  # caller -> callee evidence for summarized sites
    waived_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "src": self.src,
            "dst": self.dst,
            "sorted": self.ordered,
            "path": self.path,
            "line": self.line,
            "func": self.func,
        }
        if self.chain:
            out["chain"] = self.chain
        return out

    def render(self) -> str:
        via = f" via {self.chain}" if self.chain else ""
        return f"{self.src} -> {self.dst} ({self.path}:{self.line} in {self.func}{via})"


@dataclass
class LockGraph:
    """Static lock-acquisition graph over lock classes."""

    nodes: Dict[str, bool] = field(default_factory=dict)  # pattern -> exact?
    edges: List[LockEdge] = field(default_factory=list)
    _seen: Set[Tuple[str, str, bool, str, int]] = field(default_factory=set)

    def add_node(self, cls: Tuple[str, bool]) -> None:
        pattern, exact = cls
        self.nodes[pattern] = self.nodes.get(pattern, exact) and exact

    def add_edge(
        self,
        src: Tuple[str, bool],
        dst: Tuple[str, bool],
        ordered: bool,
        path: str,
        line: int,
        func: str,
        chain: str = "",
    ) -> None:
        self.add_node(src)
        self.add_node(dst)
        key = (src[0], dst[0], ordered, path, line)
        if key in self._seen:
            return
        self._seen.add(key)
        self.edges.append(
            LockEdge(src[0], dst[0], ordered, path, line, func, chain)
        )

    def _match(self, pattern: str, key: str) -> bool:
        if pattern == "*":
            return True
        if self.nodes.get(pattern, True):
            return key == pattern
        return key.startswith(pattern)

    def covers(self, held: str, acquired: str) -> bool:
        """Is the concrete runtime order ``held`` -> ``acquired`` an
        instance of some static edge?  Ordered (sorted-discipline)
        edges only cover key pairs in string order."""
        for edge in self.edges:
            if not self._match(edge.src, held):
                continue
            if not self._match(edge.dst, acquired):
                continue
            if edge.ordered and not held <= acquired:
                continue
            return True
        return False

    def to_dict(self) -> Dict[str, object]:
        return {
            "nodes": [
                {"class": p, "exact": self.nodes[p]} for p in sorted(self.nodes)
            ],
            "edges": [
                e.to_dict()
                for e in sorted(
                    self.edges, key=lambda e: (e.src, e.dst, e.path, e.line)
                )
            ],
        }

    def to_dot(self) -> str:
        lines = [
            "digraph repro_locks {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=10, fontname="monospace"];',
        ]
        for pattern in sorted(self.nodes):
            shape = "box" if self.nodes[pattern] else "folder"
            lines.append(f'  "{pattern}" [shape={shape}];')
        for e in sorted(self.edges, key=lambda e: (e.src, e.dst, e.path, e.line)):
            attrs = [f'label="{e.path.rsplit("/", 1)[-1]}:{e.line}"']
            if e.ordered:
                attrs.append("style=dashed")
                attrs.append('color="darkgreen"')
            lines.append(f'  "{e.src}" -> "{e.dst}" [{", ".join(attrs)}];')
        lines.append(
            '  labelloc="t"; label="lock classes: solid = program order, '
            'dashed = sorted-key discipline";'
        )
        lines.append("}")
        return "\n".join(lines) + "\n"


# ======================================================================
# Report
# ======================================================================
@dataclass
class ConcReport(flow.Report):
    TOOL, NOUN, WHY = "conc", "concurrency", "the discipline exception is sound"
    ABOUT = "Whole-program static concurrency analysis"
    GRAPH = "lock_graph"

    lock_graph: LockGraph = field(default_factory=LockGraph)
    functions: int = 0
    acquire_sites: int = 0
    signal_sites: int = 0
    reachable: int = 0

    def stats(self) -> Dict[str, int]:
        return {
            "acquire_sites": self.acquire_sites,
            "lock_classes": len(self.lock_graph.nodes),
            "lock_edges": len(self.lock_graph.edges),
            "signal_sites": self.signal_sites,
            "reachable_from_session": self.reachable,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "rules": list(RULES),
            "functions": self.functions,
            "acquire_sites": self.acquire_sites,
            "signal_sites": self.signal_sites,
            "reachable_from_session": self.reachable,
            "lock_graph": self.lock_graph.to_dict(),
            **super().to_dict(),
        }

    def summary(self) -> str:
        graph = self.lock_graph
        return (
            f"{self.functions} functions, {self.acquire_sites} acquire "
            f"site(s), {len(graph.nodes)} lock class(es), "
            f"{len(graph.edges)} edge(s), {self.signal_sites} signal fire(s)"
        )


# ======================================================================
# Lock/yield abstract interpretation
# ======================================================================
class _State:
    """Abstract machine state at one program point."""

    __slots__ = ("held", "crit", "vars")

    def __init__(self) -> None:
        #: lock class -> held count (saturating at _MANY)
        self.held: Dict[Tuple[str, bool], int] = {}
        #: critical-section depth
        self.crit = 0
        #: local name -> ("key", cls) | ("list", classes, ordered)
        #:             | ("loopkey", classes, ordered) | _SIGNAL
        self.vars: Dict[str, tuple] = {}

    def copy(self) -> "_State":
        out = _State()
        out.held = dict(self.held)
        out.crit = self.crit
        out.vars = dict(self.vars)
        return out

    def merge(self, other: "_State") -> "_State":
        out = _State()
        out.crit = max(self.crit, other.crit)
        for cls in set(self.held) | set(other.held):
            n = max(self.held.get(cls, 0), other.held.get(cls, 0))
            if n:
                out.held[cls] = n
        out.vars = {k: v for k, v in self.vars.items() if other.vars.get(k) == v}
        return out

    def held_classes(self) -> List[Tuple[str, bool]]:
        return [cls for cls, n in self.held.items() if n > 0]


@dataclass
class _Summary:
    """Interprocedural effect of one helper generator/function."""

    acquires: Set[Tuple[str, bool]] = field(default_factory=set)
    net: Dict[Tuple[str, bool], int] = field(default_factory=dict)
    suspends: bool = False


class _FuncCtx:
    """Per-function bookkeeping while interpreting one body."""

    def __init__(self, finfo: flow.FuncInfo, qual: str, node: ast.AST) -> None:
        self.finfo = finfo
        self.qual = qual  # display qualname (includes <locals> nesting)
        self.acquires: Set[Tuple[str, bool]] = set()
        self.suspends = False
        self.exits: List[Tuple[_State, int]] = []
        self.ctx_names = _context_params(node)
        #: ``x`` of every enclosing ``if x is not None:`` then-branch
        self.guards: List[Optional[str]] = []

    @property
    def render(self) -> str:
        return f"{self.finfo.module}:{self.qual}"


def _not_none_guard(test: ast.expr) -> Optional[str]:
    """``x`` as written, if ``test`` is ``x is not None``."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return ast.unparse(test.left)
    return None


def _context_params(node: ast.AST) -> Set[str]:
    """Parameter names that denote the SessionContext: annotated as
    such (plain or string annotation) or literally named ``ctx`` —
    the naming convention every script in the tree follows."""
    args = getattr(node, "args", None)
    params = [] if args is None else [*args.posonlyargs, *args.args, *args.kwonlyargs]
    return {"ctx"} | {
        a.arg
        for a in params
        if a.annotation is not None and "SessionContext" in ast.unparse(a.annotation)
    }


class _LockAnalyzer(flow.Walker):
    """Lock/yield interpretation of every function body, which also
    checks the signal placement of every ``BlockSignal`` fire it meets.

    Idealisations: a loop may run zero times (the shared default), and
    exception paths are exempt from ``lock-leak`` — handler bodies are
    scanned for findings but their exit states are discarded.  A fire
    in a statement the walk never reaches (after a ``return``, in a
    ``while ... else``) is not checked."""

    def __init__(
        self,
        program: flow.Program,
        graph: LockGraph,
        findings: flow.Findings,
        manifest: Sequence[Tuple[str, Sequence[str]]],
        signal_layers: Dict[str, str],
    ) -> None:
        super().__init__()
        self.program = program
        self.graph = graph
        self.findings = findings
        self.acquire_sites = 0
        self.signal_sites = 0
        self.signal_layers = signal_layers
        self.layer_rank = {layer: rank for rank, (layer, _p) in enumerate(manifest)}
        self.module_rank = {
            name: (classify(name, manifest) or (None,))[0] for name in program.modules
        }

    # -- driver ---------------------------------------------------------
    def run(self, finfo: flow.FuncInfo) -> _Summary:
        return self.summary(finfo.key, finfo.qualname, finfo.node, finfo)

    def recursion_summary(self) -> _Summary:
        return _Summary(suspends=True)  # recursion: empty fixpoint

    def summarize(
        self, key: str, qual: str, node: ast.AST, finfo: flow.FuncInfo
    ) -> _Summary:
        fc = _FuncCtx(finfo, qual, node)
        exits = self.walk_body(node.body, _State(), fc)
        summary = _Summary(acquires=set(fc.acquires), suspends=fc.suspends)
        for st, line in exits:
            leaked = sorted(p for (p, _x), n in st.held.items() if n > 0)
            if leaked:
                self.findings.add(
                    finfo.path,
                    line,
                    "lock-leak",
                    f"{fc.render} can exit still holding lock class(es) "
                    f"{', '.join(leaked)} — release on every non-exception "
                    "exit or add '# conc: allow[reason]'",
                )
            for cls, n in st.held.items():
                if n > summary.net.get(cls, 0):
                    summary.net[cls] = n
        return summary

    # -- statements -----------------------------------------------------
    def transfer(self, stmt: ast.stmt, cur: _State, fc: _FuncCtx) -> None:
        if isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self._effect_of_expr(stmt.value, cur, fc)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                self._effect_of_expr(value, cur, fc)
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
            if value is not None and isinstance(target, ast.Name):
                bound = self._classify_binding(value, cur)
                if bound is not None:
                    cur.vars[target.id] = bound
                else:
                    cur.vars.pop(target.id, None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs (workload script factories) run deferred with
            # fresh state; analyze them as functions in their own right.
            nested_qual = f"{fc.qual}.<locals>.{stmt.name}"
            nested_key = f"{fc.finfo.module}:{nested_qual}"
            self.summary(nested_key, nested_qual, stmt, fc.finfo)

    def join_handlers(self, out: Optional[_State], handled: list):
        return out  # exception paths are exempt from lock-leak

    def fork_if(self, stmt: ast.If, state: _State, fc: _FuncCtx) -> tuple:
        fc.guards.append(_not_none_guard(stmt.test))
        then = self.exec_block(stmt.body, state.copy(), fc)
        fc.guards.pop()
        return then, self.exec_block(stmt.orelse, state.copy(), fc)

    # -- expression effects ---------------------------------------------
    def _effect_of_expr(self, expr: ast.expr, state: _State, fc: _FuncCtx) -> None:
        if isinstance(expr, ast.Await):
            expr = expr.value
        if isinstance(expr, ast.Yield):
            self._suspension(expr.lineno, state, fc)
            return
        if isinstance(expr, ast.YieldFrom):
            call = expr.value
            if isinstance(call, ast.Call):
                kind = self._ctx_call_kind(call, fc)
                if kind == "acquire" and call.args:
                    self._suspension(expr.lineno, state, fc)
                    self._do_acquire(call.args[0], state, fc, expr.lineno)
                    return
                if kind == "run":
                    self._suspension(expr.lineno, state, fc)
                    return
                applied = self._apply_helper(call, state, fc, expr.lineno)
                if applied:
                    return
            self._suspension(expr.lineno, state, fc)
            return
        if isinstance(expr, ast.Call):
            self._plain_call(expr, state, fc)

    def _ctx_call_kind(self, call: ast.Call, fc: _FuncCtx) -> Optional[str]:
        f = call.func
        if not isinstance(f, ast.Attribute) or not isinstance(f.value, ast.Name):
            return None
        if f.value.id not in fc.ctx_names:
            return None
        if f.attr in ("acquire", "run", "release", "op_done"):
            return f.attr
        return None

    def _plain_call(self, call: ast.Call, state: _State, fc: _FuncCtx) -> None:
        f = call.func
        if not isinstance(f, ast.Attribute):
            return
        if f.attr == "note" and (
            (isinstance(f.value, ast.Attribute) and f.value.attr == "block_signal")
            or (isinstance(f.value, ast.Name) and state.vars.get(f.value.id) == _SIGNAL)
        ):
            self._signal_fire(call, fc)
            return
        if f.attr == "enter_critical":
            state.crit += 1
            return
        if f.attr == "exit_critical":
            state.crit = max(0, state.crit - 1)
            return
        if (
            f.attr == "release"
            and isinstance(f.value, ast.Name)
            and f.value.id in fc.ctx_names
            and call.args
        ):
            self._do_release(call.args[0], state, fc)

    def _signal_fire(self, call: ast.Call, fc: _FuncCtx) -> None:
        """Signal placement: a fire sits under its receiver's ``is not
        None`` guard, in the layer owning its kind or below."""
        self.signal_sites += 1
        path, line = fc.finfo.path, call.lineno
        recv = ast.unparse(call.func.value)
        if recv not in fc.guards:
            self.findings.add(
                path,
                line,
                "signal-unguarded",
                f"BlockSignal fire {recv}.note(...) is not under an '{recv} is "
                "not None' guard — sequential runs must stay one-attribute-read "
                "cheap; guard it or add '# conc: allow[reason]'",
            )
        arg = call.args[0] if call.args else None
        mod_rank = self.module_rank[fc.finfo.module]
        if mod_rank is None or not (
            isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ):
            return
        kind = arg.value
        owner = self.signal_layers.get(kind)
        if owner is None:
            self.findings.add(
                path,
                line,
                "signal-misplaced",
                f"BlockSignal kind {kind!r} has no owning layer in the signal "
                "manifest — register it in repro.check.conc.SIGNAL_LAYERS",
            )
        elif owner in self.layer_rank and mod_rank < self.layer_rank[owner]:
            self.findings.add(
                path,
                line,
                "signal-misplaced",
                f"BlockSignal kind {kind!r} belongs to layer {owner!r} or below, "
                f"but {fc.finfo.module} sits above it — a layer may only report "
                "blocking points it owns; move the fire or add "
                "'# conc: allow[reason]'",
            )

    def _suspension(self, line: int, state: _State, fc: _FuncCtx) -> None:
        fc.suspends = True
        if state.crit > 0:
            self.findings.add(
                fc.finfo.path,
                line,
                "critical-yield",
                f"{fc.render} may suspend inside an "
                "enter_critical/exit_critical section — the tree must be "
                "quiescent at every session switch; move the blocking "
                "call outside or add '# conc: allow[reason]'",
            )

    # -- acquire / release ----------------------------------------------
    def _do_acquire(
        self, key_expr: ast.expr, state: _State, fc: _FuncCtx, line: int
    ) -> None:
        self.acquire_sites += 1
        fi = fc.finfo
        loop = None
        if isinstance(key_expr, ast.Name):
            bound = state.vars.get(key_expr.id)
            if bound is not None and bound[0] == "loopkey":
                loop = bound
        if loop is not None:
            _tag, classes, ordered = loop
            for held in state.held_classes():
                if held not in classes:
                    for cls in sorted(classes):
                        self.graph.add_edge(held, cls, False, fi.path, line, fc.render)
            for c1 in sorted(classes):
                for c2 in sorted(classes):
                    self.graph.add_edge(c1, c2, ordered, fi.path, line, fc.render)
            for cls in classes:
                state.held[cls] = _MANY
            fc.acquires |= set(classes)
            return
        cls = self._key_class(key_expr, state)
        self.graph.add_node(cls)
        for held in state.held_classes():
            self.graph.add_edge(held, cls, False, fi.path, line, fc.render)
        state.held[cls] = min(_MANY, state.held.get(cls, 0) + 1)
        fc.acquires.add(cls)

    def _do_release(self, key_expr: ast.expr, state: _State, fc: _FuncCtx) -> None:
        if isinstance(key_expr, ast.Name):
            bound = state.vars.get(key_expr.id)
            if bound is not None and bound[0] == "loopkey":
                for cls in bound[1]:
                    if state.held.get(cls, 0) > 0:
                        state.held[cls] -= 1
                return
        cls = self._key_class(key_expr, state)
        if state.held.get(cls, 0) > 0:
            state.held[cls] -= 1
        elif UNKNOWN in state.held and state.held[UNKNOWN] > 0:
            state.held[UNKNOWN] -= 1

    # -- interprocedural helper application ------------------------------
    def _apply_helper(
        self, call: ast.Call, state: _State, fc: _FuncCtx, line: int
    ) -> bool:
        callees = self.program.typed_call(call).callees
        for callee in callees:
            summary = self.summary(
                callee.key, callee.qualname, callee.node, callee
            )
            if summary.suspends:
                self._suspension(line, state, fc)
            chain = f"{fc.render} -> {callee.key}"
            for cls in sorted(summary.acquires):
                for held in state.held_classes():
                    self.graph.add_edge(
                        held, cls, False, fc.finfo.path, line, fc.render, chain
                    )
            for cls, n in summary.net.items():
                state.held[cls] = min(_MANY, state.held.get(cls, 0) + n)
            fc.acquires |= summary.acquires
        return bool(callees)

    # -- key/list classification ----------------------------------------
    def _key_class(
        self, expr: ast.expr, state: _State, depth: int = 0
    ) -> Tuple[str, bool]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return (expr.value, True)
        if isinstance(expr, ast.JoinedStr):
            prefix = ""
            for part in expr.values:
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    prefix += part.value
                else:
                    break
            return (prefix, False) if prefix else UNKNOWN
        if (
            isinstance(expr, ast.BinOp)
            and isinstance(expr.op, ast.Add)
            and isinstance(expr.left, ast.Constant)
            and isinstance(expr.left.value, str)
        ):
            return (expr.left.value, False)
        if isinstance(expr, ast.Name):
            bound = state.vars.get(expr.id)
            if bound is not None and bound[0] == "key":
                return bound[1]
            if (
                bound is not None
                and bound[0] in ("list", "loopkey")
                and len(bound[1]) == 1
            ):
                return next(iter(bound[1]))
            return UNKNOWN
        if isinstance(expr, ast.Call) and depth < 3:
            classes = set()
            for callee in self.program.typed_call(expr).callees:
                for sub in ast.walk(callee.node):
                    if isinstance(sub, ast.Return) and sub.value is not None:
                        classes.add(
                            self._key_class(sub.value, _State(), depth + 1)
                        )
            if len(classes) == 1:
                return next(iter(classes))
            return UNKNOWN
        return UNKNOWN

    def _classify_binding(self, value: ast.expr, state: _State) -> Optional[tuple]:
        cls = self._key_class(value, state)
        if cls != UNKNOWN:
            return ("key", cls)
        lst = self._keylist(value, state)
        if lst is not None:
            return ("list",) + lst
        if any(
            isinstance(part, ast.Attribute) and part.attr == "block_signal"
            for part in ast.walk(value)
        ):
            return _SIGNAL
        return None

    def _keylist(
        self, expr: ast.expr, state: _State
    ) -> Optional[Tuple[FrozenSet[Tuple[str, bool]], bool]]:
        """``(lock classes, ordered)`` of a key-sequence expression."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name = expr.func.id
            if name == "sorted" and expr.args:
                inner = self._elem_classes(expr.args[0], state)
                if inner is not None:
                    return (inner, True)
                return None
            if name in ("reversed", "list", "tuple", "set") and expr.args:
                inner = self._keylist(expr.args[0], state)
                if inner is not None:
                    return (inner[0], False)
                elems = self._elem_classes(expr.args[0], state)
                if elems is not None:
                    return (elems, False)
                return None
            return None
        if isinstance(expr, ast.Name):
            bound = state.vars.get(expr.id)
            if bound is not None and bound[0] in ("list", "loopkey"):
                return (bound[1], bound[2])
            return None
        elems = self._elem_classes(expr, state)
        if elems is not None:
            return (elems, False)
        return None

    def _elem_classes(
        self, expr: ast.expr, state: _State
    ) -> Optional[FrozenSet[Tuple[str, bool]]]:
        if isinstance(expr, (ast.List, ast.Set, ast.Tuple)):
            if not expr.elts:
                return None
            return frozenset(
                self._key_class(elt, state) for elt in expr.elts
            )
        if isinstance(expr, (ast.SetComp, ast.ListComp, ast.GeneratorExp)):
            return frozenset({self._key_class(expr.elt, _State())})
        if isinstance(expr, ast.Name):
            bound = state.vars.get(expr.id)
            if bound is not None and bound[0] in ("list", "loopkey"):
                return bound[1]
        return None

    # -- control flow helpers --------------------------------------------
    def exec_for(self, node: ast.For, cur: _State, fc: _FuncCtx) -> Optional[_State]:
        lst = self._keylist(node.iter, cur)
        entry = cur.copy()
        body_state = cur.copy()
        if lst is not None and isinstance(node.target, ast.Name):
            body_state.vars[node.target.id] = ("loopkey", lst[0], lst[1])
        out = self.exec_block(node.body, body_state, fc)
        if node.orelse:
            self.exec_block(node.orelse, (out or entry).copy(), fc)
        if out is None or lst is None:
            return self.loop_exit(entry, out)
        # A recognized key sequence is assumed to drain fully: a
        # net-acquiring loop leaves MANY held, a net-releasing loop
        # leaves none (the canonical acquire-all/release-all shape).
        post = entry
        for cls in set(entry.held) | set(out.held):
            before = entry.held.get(cls, 0)
            after = out.held.get(cls, 0)
            if after > before:
                post.held[cls] = _MANY
            elif after < before:
                post.held[cls] = 0
        post.crit = max(entry.crit, out.crit)
        return post


# ======================================================================
# Lock-cycle detection
# ======================================================================
def _lock_cycles(
    graph: LockGraph, waivers: WaiverSet, findings: flow.Findings
) -> None:
    """Report every cycle of the may-hold-while-acquiring relation that
    is not fully covered by the sorted-key discipline."""
    sccs = flow.unwaived_cycles(
        graph.nodes, graph.edges, waivers, lambda edge: not edge.ordered
    )
    for scc in sccs:
        in_cycle = [
            e
            for e in graph.edges
            if e.waived_reason is None and e.src in scc and e.dst in scc
        ]
        unordered = [e for e in in_cycle if not e.ordered]
        if not unordered:
            continue  # all edges follow the one global sorted order
        anchor = min(unordered, key=lambda e: (e.path, e.line))
        evidence = "; ".join(
            e.render() for e in sorted(in_cycle, key=lambda e: (e.src, e.dst))
        )
        findings.add(
            anchor.path,
            anchor.line,
            "lock-cycle",
            "lock-order cycle in the may-hold-while-acquiring relation: "
            f"{evidence} — acquire multi-lock sets in sorted(key) order "
            "or add '# conc: allow[reason]'",
        )


# ======================================================================
# Session-purity pass
# ======================================================================
def _purity_pass(program: flow.Program, findings: flow.Findings) -> int:
    def class_method(func: flow.FuncInfo) -> Optional[Tuple[str, str]]:
        if func.class_key is None:
            return None
        cls = program.classes.get(func.class_key)
        if cls is None:
            return None
        return (cls.name, func.qualname.rsplit(".", 1)[-1])

    roots = [
        f.key for f in program.functions.values() if class_method(f) in ENTRY_METHODS
    ]
    parent = flow.reach(roots, lambda key: program.functions[key].calls)
    for key in sorted(parent):
        func = program.functions[key]
        cm = class_method(func)
        if cm is not None and cm in SINK_METHODS:
            continue
        if func.qualname == "__init__" or func.qualname.endswith(".__init__"):
            continue  # constructing state is not mutating shared state
        env = program.param_env(func)
        for sub in ast.walk(func.node):
            target = None
            if isinstance(sub, ast.Assign) and sub.targets:
                target = sub.targets[0]
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                target = sub.target
            if not isinstance(target, ast.Attribute):
                continue
            direct, _elems = program.eval(target.value, func, env)
            hit = sorted(
                program.classes[k].name
                for k in direct
                if k in program.classes
                and program.classes[k].name in STATE_CLASS_NAMES
            )
            if hit:
                chain = " -> ".join(reversed(flow.chain(parent, key)))
                findings.add(
                    func.path,
                    sub.lineno,
                    "conc-impure",
                    f"{func.key} mutates {hit[0]}.{target.attr} but is "
                    "reachable from a session "
                    f"(chain: {chain}) and is not in the conc sink "
                    "set — route the mutation through a sink or add "
                    "'# conc: allow[reason]'",
                )
    return len(parent)


# ======================================================================
# Analysis driver
# ======================================================================
def analyze(
    root: Optional[str] = None,
    package: str = "repro",
    manifest: Sequence[Tuple[str, Sequence[str]]] = LAYER_MANIFEST,
    signal_layers: Optional[Dict[str, str]] = None,
    program: Optional[flow.Program] = None,
) -> ConcReport:
    program = program or flow.load_program(root, package)
    layers = dict(SIGNAL_LAYERS if signal_layers is None else signal_layers)
    waivers = program.waivers("conc")
    report = ConcReport()
    report.functions = len(program.functions)
    findings = flow.Findings()

    # Lock graph, yield discipline and signal placement: one walk.
    analyzer = _LockAnalyzer(program, report.lock_graph, findings, manifest, layers)
    for func in program.functions_in_order():
        analyzer.run(func)
    report.acquire_sites = analyzer.acquire_sites
    report.signal_sites = analyzer.signal_sites

    # Session purity.
    report.reachable = _purity_pass(program, findings)

    # Lock-order cycles (waivers break in-cycle edges out of the graph).
    _lock_cycles(report.lock_graph, waivers, findings)

    report.finish(findings, waivers)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point used by ``python -m repro.check conc``."""
    return flow.run_cli(ConcReport, analyze, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
