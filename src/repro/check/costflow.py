"""Interprocedural cost-flow analysis (``python -m repro.check costflow``).

The fidelity property that separates a calibrated simulator from a toy
is *every byte moved charges simulated time*.  The purity lint checks
call sites one statement at a time; it cannot see that a byte-moving
helper is fine **because its callers charge**, or that a new call path
sneaks bytes past the clock entirely.  This module checks the property
interprocedurally:

1. parse all of ``src/repro`` and build a **module-qualified call
   graph** — receivers are resolved through parameter/attribute/return
   annotations, constructor assignments, and repo-local class
   hierarchies (virtual dispatch over-approximates: a call through a
   base class reaches every override);
2. mark **cost sinks**: :meth:`SimClock.cpu` / :meth:`wait_until`
   advancement, the :class:`CostModel` charge helpers, and the timed
   :class:`BlockDevice` / FTL operations;
3. mark **byte-moving sources**: extent-store reads/writes, node
   serialize/deserialize, basement-node apply/memcpy paths, and
   journal/WAL appends;
4. run a **must-charge reachability pass**: a source call site is OK
   only if its enclosing function charges a sink (transitively through
   its callees), or every non-exempt caller chain is itself covered
   ("dominated by charging callers").  Anything else is flagged
   (``uncharged-bytes``) with a call-chain witness.

Offline tooling is exempt (``repro.check``, ``repro.crashmc``, device
preconditioning) — no simulated timeline exists there to distort.
Deliberate exceptions carry ``# costflow: allow[reason]`` on the source
line; unused waivers are errors (``unused-waiver``).

The call graph is :mod:`repro.check.flow`'s, whose resolver is
*typed-or-nothing*.  The analysis therefore over-approximates coverage
(any override charging counts) and under-approximates the caller
graph; both biases favour precision of findings over recall, which is
the right trade for a CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check import flow

#: Rule identifiers this analysis can emit.
RULES = ("uncharged-bytes", "unused-waiver")

#: ``(class name, method)`` calls that charge the simulated clock.
SINK_METHODS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("SimClock", "cpu"),
        ("SimClock", "wait_until"),
        ("CostModel", "memcpy"),
        ("CostModel", "checksum"),
        ("CostModel", "serialize"),
        ("CostModel", "vmalloc"),
        ("CostModel", "vfree"),
        ("BlockDevice", "read"),
        ("BlockDevice", "read_segments"),
        ("BlockDevice", "write"),
        ("BlockDevice", "submit_read"),
        ("BlockDevice", "submit_write"),
        ("BlockDevice", "wait"),
        ("BlockDevice", "flush"),
        ("BlockDevice", "discard"),
        ("FlashTranslationLayer", "host_write"),
        ("FlashTranslationLayer", "trim"),
        # repro.sched blocking primitives: a session suspension passes
        # simulated time to the session (the scheduler charges switches
        # and accounts waits on the shared clock), so driving an
        # operation through SessionContext reaches the clock.
        ("SessionContext", "run"),
        ("SessionContext", "acquire"),
    }
)

#: ``(class name, method)`` calls that move bytes.
SOURCE_METHODS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("ExtentStore", "read"),
        ("ExtentStore", "read_segments"),
        ("ExtentStore", "write"),
        ("WriteAheadLog", "append"),
        ("Journal", "log_block"),
        ("Journal", "commit"),
        ("BasementNode", "apply"),
        ("BasementNode", "set"),
    }
)

#: Free functions (module-level) that move bytes.
SOURCE_FUNCS: FrozenSet[str] = frozenset(
    {
        "serialize_node",
        "decode_node",
        "serialize_leaf",
        "serialize_internal",
        "decode_basement",
        "encode_payload",
        "decode_payload",
        # repro.shard cross-shard intent records (two-phase protocol).
        "pack_intent",
        "unpack_intent",
    }
)

#: Modules whose byte moves are offline by design: the checkers and the
#: crash explorer probe images with no live timeline, and the aging /
#: FTL-precondition paths document that they charge nothing.  Mirrors
#: the purity lint's device-layer allowances.
EXEMPT_MODULES: Tuple[str, ...] = (
    "repro.check",
    "repro.crashmc",
    "repro.workloads.aging",
    "repro.harness.ftl",
)


@dataclass
class CostflowReport(flow.Report):
    TOOL, NOUN, WHY = "costflow", "cost-flow", "the byte move needs no charge"
    ABOUT = "Interprocedural must-charge analysis for repro"

    functions: int = 0
    call_edges: int = 0
    charging_functions: int = 0
    sources_checked: int = 0

    def stats(self) -> Dict[str, int]:
        return {
            "functions": self.functions,
            "call_edges": self.call_edges,
            "charging_functions": self.charging_functions,
            "sources_checked": self.sources_checked,
        }

    def to_dict(self) -> Dict[str, object]:
        return {**self.stats(), **super().to_dict()}

    def summary(self) -> str:
        return (
            f"{self.functions} functions, {self.call_edges} call edges, "
            f"{self.charging_functions} charging, {self.sources_checked} "
            "byte-moving sites checked"
        )


# ======================================================================
# Analysis driver
# ======================================================================
def analyze(
    root: Optional[str] = None,
    package: str = "repro",
    exempt: Sequence[str] = EXEMPT_MODULES,
    program: Optional[flow.Program] = None,
) -> CostflowReport:
    program = program or flow.load_program(root, package)
    waivers = program.waivers("costflow")
    functions = program.functions
    report = CostflowReport()
    report.functions = len(functions)
    report.call_edges = sum(len(f.calls) for f in functions.values())

    # -- sink/source classification by (class name, method) or function --
    sinks: Set[str] = set()
    sources: Dict[str, List[flow.CallSite]] = {}
    for func in functions.values():
        for site in func.sites:
            if any((n, site.name) in SINK_METHODS for n in site.receivers):
                sinks.add(func.key)
            if any(
                (n, site.name) in SOURCE_METHODS for n in site.receivers
            ) or (not site.receivers and site.name in SOURCE_FUNCS):
                sources.setdefault(func.key, []).append(site)

    # -- charges: reaches a sink through its own callees ----------------
    callers: Dict[str, Set[str]] = {}
    for func in functions.values():
        for callee in func.calls:
            callers.setdefault(callee, set()).add(func.key)
    charges = set(flow.reach(sinks, lambda key: callers.get(key, ())))
    report.charging_functions = len(charges)

    # -- coverage: condensation of the *caller* graph -------------------
    exempt_funcs = {
        f.key for f in functions.values() if flow.is_exempt(f.module, exempt)
    }
    covered = _coverage(program, charges, callers, exempt_funcs)

    # -- findings -------------------------------------------------------
    findings = flow.Findings()
    for func in program.functions_in_order():
        if func.key not in sources or func.key in exempt_funcs:
            continue
        report.sources_checked += len(sources[func.key])
        if covered[func.key]:
            continue
        chain = _witness_chain(func, covered, callers, exempt_funcs)
        for site in sources[func.key]:
            findings.add(
                func.path,
                site.line,
                "uncharged-bytes",
                f"{site.rendered} moves bytes in {func.module}:{func.qualname}, "
                "which neither charges the simulated clock nor is "
                f"dominated by charging callers (chain: {chain}) — "
                "charge a cost, route through a charging layer, or "
                "add '# costflow: allow[reason]'",
            )
    report.finish(findings, waivers)
    return report


def _coverage(
    program: flow.Program,
    charges: Set[str],
    callers: Dict[str, Set[str]],
    exempt_funcs: Set[str],
) -> Dict[str, bool]:
    """Least fixpoint of: covered(f) = charges(f) or (f has callers and
    every non-exempt caller is covered), computed on the SCC
    condensation of the caller graph so recursion does not self-block."""
    functions = program.functions
    members = flow.sccs(functions, lambda key: functions[key].calls)
    scc_id = {key: cid for cid, ms in enumerate(members) for key in ms}
    # Condensed caller relation: callers of an SCC are the SCCs of
    # callers of its members, excluding itself.
    comp_callers: List[Set[int]] = [set() for _ in members]
    for key in functions:
        for caller in callers.get(key, ()):
            a, b = scc_id[caller], scc_id[key]
            if a != b:
                comp_callers[b].add(a)
    exempt_only = [all(m in exempt_funcs for m in ms) for ms in members]
    covered = [any(m in charges for m in ms) for ms in members]
    changed = True
    while changed:
        changed = False
        for cid, pres in enumerate(comp_callers):
            if covered[cid]:
                continue
            if (
                all(covered[p] or exempt_only[p] for p in pres)
                and not all(exempt_only[p] for p in pres)
            ):
                covered[cid] = True
                changed = True
    return {key: covered[scc_id[key]] for key in functions}


def _witness_chain(
    func: flow.FuncInfo,
    covered: Dict[str, bool],
    callers: Dict[str, Set[str]],
    exempt_funcs: Set[str],
) -> str:
    """An uncovered caller chain ending at ``func`` (the evidence)."""
    chain = [func.key]
    seen = {func.key}
    cur = func.key
    while True:
        uncovered = sorted(
            c
            for c in callers.get(cur, ())
            if not covered.get(c, False) and c not in seen and c not in exempt_funcs
        )
        if not uncovered:
            break
        cur = uncovered[0]
        seen.add(cur)
        chain.append(cur)
    rendered = " <- ".join(chain)
    if not callers.get(chain[-1]):
        rendered += " <- (entry: no callers charge upstream)"
    return rendered
