"""Simulation-purity lint (custom AST pass).

The reproduction's results are only trustworthy if every cost flows
through the simulated clock and every run is deterministic.  This lint
walks ``src/repro`` with :mod:`ast` and enforces the purity rules the
test suite cannot see:

* ``wall-clock`` — no ``time.time()`` / ``time.monotonic()`` /
  ``datetime.now()`` etc.  Simulated components must read
  :class:`~repro.device.clock.SimClock`; real elapsed time (the
  harness banner) must go through :mod:`repro.obs.prof`, the one
  allowlisted wall-clock provider.  Host time per layer is measured
  from outside the package, by perfbench.
* ``unseeded-random`` — no module-level ``random.*`` calls (global,
  process-wide RNG state).  Seeded ``random.Random(seed)`` instances
  are fine: they are deterministic and local.
* ``dict-order`` — in serialization paths, no direct iteration over
  ``.keys()`` / ``.values()`` / ``.items()``: on-disk bytes must not
  depend on insertion order, so iteration there must go through
  ``sorted(...)``.
* ``str-key`` — tree keys are ``bytes`` with memcmp ordering; a ``str``
  literal crossing a ``core.keys``-style API (``put`` / ``delete`` /
  ``insert`` / ``range_delete`` / ``prefix_range`` ...) would compare
  by code point and silently mis-sort.
* ``mutable-default`` — no mutable default arguments (shared state
  across calls breaks run-to-run determinism).
* ``raw-device-io`` — :class:`~repro.device.block.BlockDevice` / FTL /
  extent-store call sites must live in the cost-charging layers
  (``device/``, ``storage/``, ``baselines/``); anywhere else an I/O
  would move bytes without charging simulated time.
* ``bare-assert`` — no ``assert`` statements in ``src/repro``: CI runs
  the crash/recovery subset under ``python -O``, which strips asserts,
  so an invariant guarded by ``assert`` is an invariant that silently
  stops being checked.  Use :func:`repro.check.errors.require` or a
  typed :class:`~repro.check.errors.CheckError` subclass instead.
* ``message-ladder`` — no ``isinstance(x, <Message subclass>)`` outside
  ``core/messages.py`` (the one owner of what each kind does) and
  ``core/serialize.py`` (the on-disk format): ask the message
  (``transition`` / ``affects`` / ``touches`` / ``clip`` ...) instead.

``python -m repro.check lint`` (exit 0 = clean) additionally runs the
whole-program analyses in :data:`ANALYSES` over one shared
:class:`~repro.check.flow.Program` and merges their findings;
``--format json`` emits a machine-readable report and ``--graph-out
PREFIX`` archives the graph of every analysis that has one, as
``PREFIX-<tool>.json`` + ``.dot``, for CI.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check import arch, conc, costflow, durflow, flow
from repro.check.flow import Violation, repo_root

#: The whole-program analyses a bare ``lint`` run composes after the
#: purity lint, in run order; ``python -m repro.check <name>`` runs one
#: alone.
ANALYSES = {"arch": arch, "costflow": costflow, "conc": conc, "durflow": durflow}

#: All rule identifiers, in reporting order.
RULES = (
    "wall-clock",
    "unseeded-random",
    "dict-order",
    "str-key",
    "mutable-default",
    "raw-device-io",
    "bare-assert",
    "message-ladder",
)

#: Wall-clock functions of the ``time`` module.
_WALLCLOCK_TIME_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "localtime",
    "gmtime",
    "ctime",
}
#: Wall-clock constructors of the ``datetime`` module.
_WALLCLOCK_DT_FNS = {"now", "utcnow", "today"}

#: Module-level ``random`` functions that mutate the global RNG.
_GLOBAL_RANDOM_FNS = {
    "random",
    "randrange",
    "randint",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "getrandbits",
    "gauss",
    "betavariate",
    "expovariate",
    "normalvariate",
}

#: Files whose output becomes on-disk bytes: iteration order there is
#: iteration order on the platter.
SERIALIZATION_PATHS = {
    "core/serialize.py",
    "core/checkpoint.py",
    "core/wal.py",
}

#: Methods that take ``bytes`` keys (the ``core.keys`` API boundary),
#: each with the receiver names it is checked on (``None``: any).
#: ``get`` is every mapping's too, so only ``env.get`` / ``tree.get``.
_BYTES_KEY_METHODS = {
    "put": None,
    "delete": None,
    "patch": None,
    "insert": None,
    "range_delete": None,
    "range_query": None,
    "empty_range": None,
    "get": {"env", "tree"},
}
#: Free functions from ``repro.core.keys`` that take ``bytes``.
_BYTES_KEY_FUNCS = {
    "prefix_range",
    "prefix_successor",
    "common_prefix",
    "common_prefix_of",
    "in_range",
    "ranges_overlap",
    "range_covers",
}

#: Concrete message kinds, and the two modules that may branch on them.
_MESSAGE_KINDS = {"PointMessage", "Insert", "InsertByRef", "Delete", "Patch", "RangeDelete"}
_MESSAGE_KIND_OWNERS = {"core/messages.py", "core/serialize.py"}

#: Raw-I/O methods per receiver kind.
_DEVICE_IO_METHODS = {
    "read", "read_segments", "write", "submit_read", "submit_write", "flush", "discard",
}
_FTL_IO_METHODS = {"host_write", "trim"}
_STORE_IO_METHODS = {"read", "read_segments", "write", "discard"}

#: Modules allowed to touch the device/FTL/store directly: the
#: cost-charging layers themselves, the offline checker (no simulated
#: time exists offline), device preconditioning (charges no time by
#: documented design), and the crash explorer (it materializes and
#: probes crash-twin devices — post-crash images on their own clocks,
#: where no live simulated timeline exists to be distorted).
_DEVICE_LAYER_PREFIXES = ("device/", "storage/", "baselines/", "check/", "crashmc/")
_DEVICE_LAYER_FILES = {"workloads/aging.py", "harness/ftl.py"}

#: (relpath, rule) pairs tolerated in the repo.  repro.obs.prof is the
#: single sanctioned wall-clock module — the one wall-time consumer
#: (the harness banner) derives from its one ``perf_counter_ns`` read
#: — and the lint self-test in
#: tests/test_check.py asserts it stays the only one.
DEFAULT_ALLOWLIST: Set[Tuple[str, str]] = {
    ("obs/prof.py", "wall-clock"),
}


def _receiver_name(recv: ast.expr) -> Optional[str]:
    """``device`` for ``device.write(...)`` and ``self.device.write(...)``."""
    if isinstance(recv, ast.Attribute):
        return recv.attr
    if isinstance(recv, ast.Name):
        return recv.id
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, relpath: str, serialization_path: bool) -> None:
        self.path = path
        self.relpath = relpath
        self.serialization_path = serialization_path
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), rule, message)
        )

    # ------------------------------------------------------------------
    # Imports: `from time import time` smuggles the wall clock in under
    # a bare name the call checks below cannot see.
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME_FNS:
                    self._flag(
                        node,
                        "wall-clock",
                        f"from time import {alias.name}: wall-clock must not "
                        "enter simulated components (use SimClock)",
                    )
        if node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RANDOM_FNS:
                    self._flag(
                        node,
                        "unseeded-random",
                        f"from random import {alias.name}: global RNG state; "
                        "use a seeded random.Random instance",
                    )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            mod, name = func.value.id, func.attr
            if mod == "time" and name in _WALLCLOCK_TIME_FNS:
                self._flag(
                    node,
                    "wall-clock",
                    f"time.{name}() reads the wall clock; simulated code "
                    "must charge SimClock instead",
                )
            if mod == "datetime" and name in _WALLCLOCK_DT_FNS:
                self._flag(
                    node,
                    "wall-clock",
                    f"datetime.{name}() reads the wall clock",
                )
            if mod == "random" and name in _GLOBAL_RANDOM_FNS:
                self._flag(
                    node,
                    "unseeded-random",
                    f"random.{name}() uses the global RNG; use a seeded "
                    "random.Random instance for determinism",
                )
        self._check_str_key(node)
        self._check_raw_device_io(node)
        self._check_message_ladder(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def _check_message_ladder(self, node: ast.Call) -> None:
        is_test = isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        if not is_test or len(node.args) != 2 or self.relpath in _MESSAGE_KIND_OWNERS:
            return
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            if isinstance(kind, ast.Name) and kind.id in _MESSAGE_KINDS:
                self._flag(
                    node,
                    "message-ladder",
                    f"isinstance(..., {kind.id}) re-derives message semantics: "
                    "core/messages.py is their only owner — call the message",
                )

    # ------------------------------------------------------------------
    def _check_str_key(self, node: ast.Call) -> None:
        func = node.func
        target: Optional[str] = None
        if isinstance(func, ast.Attribute) and func.attr in _BYTES_KEY_METHODS:
            receivers = _BYTES_KEY_METHODS[func.attr]
            if receivers is None or _receiver_name(func.value) in receivers:
                target = func.attr
        elif isinstance(func, ast.Name) and func.id in _BYTES_KEY_FUNCS:
            target = func.id
        if target is None:
            return
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                self._flag(
                    node,
                    "str-key",
                    f"str literal {arg.value!r} passed to {target}(): keys "
                    "crossing core.keys APIs must be bytes",
                )

    # ------------------------------------------------------------------
    def _check_raw_device_io(self, node: ast.Call) -> None:
        rel = self.relpath
        if rel.startswith(_DEVICE_LAYER_PREFIXES) or rel in _DEVICE_LAYER_FILES:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        recv_name = _receiver_name(func.value)
        if recv_name == "device" and func.attr in _DEVICE_IO_METHODS:
            self._flag(
                node,
                "raw-device-io",
                f"direct BlockDevice.{func.attr}() call outside the "
                "cost-charging layers (go through the southbound API)",
            )
        elif recv_name == "ftl" and func.attr in _FTL_IO_METHODS:
            self._flag(
                node,
                "raw-device-io",
                f"direct FTL.{func.attr}() call outside the device layer",
            )
        elif recv_name == "store" and func.attr in _STORE_IO_METHODS:
            self._flag(
                node,
                "raw-device-io",
                f"direct ExtentStore.{func.attr}() call outside the device "
                "layer (bytes would move without charging time)",
            )

    # ------------------------------------------------------------------
    # dict-order: direct iteration over dict views in serialization
    # paths.  `sorted(d.items())` is the sanctioned form.
    def _check_iter(self, iter_node: ast.expr, where: ast.AST) -> None:
        if not self.serialization_path:
            return
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("keys", "values", "items")
        ):
            self._flag(
                where,
                "dict-order",
                f"iteration over .{iter_node.func.attr}() in a serialization "
                "path: on-disk bytes must not depend on insertion order "
                "(wrap in sorted(...))",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ------------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        mutable = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, mutable):
                self._flag(
                    default,
                    "mutable-default",
                    "mutable default argument (shared across calls; breaks "
                    "run-to-run determinism) — default to None instead",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._flag(
            node,
            "bare-assert",
            "assert statement in src/repro: python -O strips it, so the "
            "invariant silently stops being checked — use "
            "repro.check.errors.require() or raise a typed CheckError",
        )
        self.generic_visit(node)


# ----------------------------------------------------------------------
def _lint_source(src: flow.SourceFile, serialization_path: bool) -> List[Violation]:
    # ``src.rel`` (relative to the package) keys the per-layer rules.
    linter = _Linter(src.path, src.rel, serialization_path)
    linter.visit(src.tree)
    linter.violations.sort(key=lambda v: (v.line, v.rule))
    return linter.violations


def lint_file(path: str) -> List[Violation]:
    """Lint one standalone file (a fixture) under the strictest
    profile: no per-layer allowance, and every rule applies."""
    return _lint_source(flow.read_source(path, os.path.basename(path)), True)


def _lint_sources(
    files: Sequence[flow.SourceFile], use_allowlist: bool
) -> List[Violation]:
    violations: List[Violation] = []
    for src in files:
        found = _lint_source(src, src.rel in SERIALIZATION_PATHS)
        if use_allowlist:
            found = [v for v in found if (src.rel, v.rule) not in DEFAULT_ALLOWLIST]
        violations.extend(found)
    return violations


def lint_repo(
    root: Optional[str] = None, use_allowlist: bool = True
) -> List[Violation]:
    """Lint every module under ``src/repro`` (or ``root``)."""
    return _lint_sources(flow.load_sources(root or repo_root()), use_allowlist)


def lint_paths(
    paths: Sequence[str], use_allowlist: bool = True
) -> List[Violation]:
    """Lint explicit files and/or directories."""
    violations: List[Violation] = []
    for path in paths:
        if os.path.isdir(path):
            violations.extend(lint_repo(path, use_allowlist=use_allowlist))
        else:
            violations.extend(lint_file(path))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point used by ``python -m repro.check lint``.

    A bare ``lint`` run parses ``src/repro`` once and composes the
    per-file purity lint with every analysis in :data:`ANALYSES`.
    Explicit ``paths`` run only the per-file lint (the whole-program
    analyses need the whole program).  The summary line carries a
    per-pass finding count and the exit code is nonzero on any finding
    from any pass.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.check lint",
        description="Simulation-purity lint + whole-program analyses",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--no-allowlist",
        action="store_true",
        help="report allowlisted findings too (used by the lint self-test)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format (json is machine-readable for CI)",
    )
    parser.add_argument(
        "--graph-out",
        metavar="PREFIX",
        help="write each analysis graph to PREFIX-<tool>.json + .dot",
    )
    args = parser.parse_args(argv)

    waivers: List[str] = []
    payload: Dict[str, object] = {}
    per_pass = ""
    if args.paths:
        violations = lint_paths(args.paths, use_allowlist=not args.no_allowlist)
    else:
        program = flow.load_program()
        violations = _lint_sources(program.files, not args.no_allowlist)
        passes = {"lint": len(violations)}
        for name, analysis in ANALYSES.items():
            report = analysis.analyze(program=program)
            passes[name] = len(report.violations)
            violations.extend(report.violations)
            waivers.extend(report.waivers)
            payload[name] = report.stats()
            if report.GRAPH is not None and args.graph_out:
                payload.setdefault("graph_files", []).extend(flow.write_graph(
                    getattr(report, report.GRAPH), f"{args.graph_out}-{name}"
                ))
        payload["passes"] = passes
        per_pass = " (" + " ".join(f"{k}={n}" for k, n in passes.items()) + ")"

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    payload.update(
        ok=not violations,
        violations=[v.to_dict() for v in violations],
        waivers=waivers,
    )
    return flow.emit(
        args.fmt,
        payload,
        waivers,
        violations,
        f"violation(s){per_pass}",
        f"repro.check lint: clean{per_pass}",
    )
