"""Tests for ``repro.check.durflow``: the static durability-ordering
analyzer and its runtime order-graph backstop.

Same two families as the other whole-program analyses:

* a fixture tree under ``tests/fixtures/durflow/tree`` proves every
  rule family *can* fire (a rule whose failing fixture passes checks
  nothing), and that waivers suppress exactly what they claim;
* self-tests prove the real ``src/repro`` tree is clean, so any new
  finding is a regression introduced by the change under review.

Plus the static/dynamic agreement suite:

* the order recorder is a **pure observer** — attaching it changes
  neither the device image (sha256) nor the simulated clock;
* every (effect, barrier) ordering observed by a fixed-seed torture
  sweep is covered by the static order graph, and ``harness torture
  --verify-order-graph`` enforces exactly that (stderr + exit code
  only; the stdout JSON stays byte-identical).
"""

import json
import os

import pytest

from repro.check import arch, conc, costflow, durflow, lint
from repro.check.__main__ import main as check_main
from repro.check.order import OrderLog, OrderRecorder, layout_spans
from repro.crashmc.explore import _Stack
from repro.crashmc.workload import WORKLOADS
from repro.harness.mt import device_sha256
from tests.conftest import real_program

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DUR_TREE = os.path.join(FIXTURES, "durflow", "tree")

_CACHE = {}


def _fixture_report():
    if "fixture" not in _CACHE:
        _CACHE["fixture"] = durflow.analyze(root=DUR_TREE, package="durpkg")
    return _CACHE["fixture"]


def _real_report():
    if "real" not in _CACHE:
        _CACHE["real"] = durflow.analyze(program=real_program())
    return _CACHE["real"]


def _by_rule(report):
    grouped = {}
    for violation in report.violations:
        grouped.setdefault(violation.rule, []).append(violation)
    return grouped


def _anchors(violations):
    return sorted((os.path.basename(v.path), v.line) for v in violations)


# ======================================================================
# Fixture tree: every rule family fires, and only where it should
# ======================================================================
class TestDurflowFixtures:
    def test_every_rule_family_fires(self):
        grouped = _by_rule(_fixture_report())
        assert set(grouped) == {
            "write-ahead",
            "barrier-order",
            "intent-protocol",
            "recovery-reads-durable",
            "unused-waiver",
        }, [v.render() for v in _fixture_report().violations]

    def test_write_ahead_anchors(self):
        """Both unlogged-mutation shapes: a bare ``tree.put`` with no
        dominating WAL append, and an env insert with a constant
        ``log=False`` at the call site."""
        found = _by_rule(_fixture_report())["write-ahead"]
        assert _anchors(found) == [
            ("bad_unlogged_mutation.py", 60),
            ("bad_unlogged_mutation.py", 64),
        ], [v.render() for v in found]

    def test_barrier_order_anchors(self):
        """The torn checkpoint (superblock written while nodes are
        dirty) and the unsynced acknowledgement (a ``sync`` entry whose
        exits are never barriered)."""
        found = _by_rule(_fixture_report())["barrier-order"]
        assert _anchors(found) == [
            ("bad_torn_checkpoint.py", 45),
            ("bad_torn_checkpoint.py", 53),
        ], [v.render() for v in found]

    def test_intent_protocol_anchors(self):
        """Four coordinator mistakes: applying to a shard before the
        intent is durable, fanning out over an unsorted shard iterator,
        returning before phase 2 completes, and retiring the intent
        while another volume's source delete is unsynced."""
        found = _by_rule(_fixture_report())["intent-protocol"]
        assert _anchors(found) == [
            ("bad_intent_order.py", 63),
            ("bad_intent_order.py", 64),
            ("bad_intent_order.py", 67),
            ("bad_intent_order.py", 81),
        ], [v.render() for v in found]

    def test_recovery_reads_durable_anchor(self):
        [v] = _by_rule(_fixture_report())["recovery-reads-durable"]
        assert v.path.endswith("bad_recovery_peek.py") and v.line == 22
        # Evidence: the recovery call chain plus the volatile accessor.
        assert "unflushed" in v.message and "resolve_intents" in v.message

    def test_recovery_paths_exempt_from_write_ahead(self):
        """Log replay legitimately re-applies mutations without a new
        WAL append: the ``tree.put`` inside the recovery fixture must
        NOT double as a write-ahead finding."""
        for v in _by_rule(_fixture_report()).get("write-ahead", []):
            assert not v.path.endswith("bad_recovery_peek.py"), v.render()

    def test_clean_fixture_stays_clean(self):
        """good.py exercises every *correct* idiom (gated WAL append,
        node-flush-then-superblock checkpoint, sorted two-phase fanout)
        and must produce nothing."""
        for violation in _fixture_report().violations:
            assert not violation.path.endswith("good.py"), violation.render()

    def test_waiver_suppresses_exactly_one_finding(self):
        report = _fixture_report()
        for violation in report.violations:
            assert not violation.path.endswith("waived.py"), violation.render()
        used = [w for w in report.waivers if "waived.py:10" in w]
        assert len(used) == 1, report.waivers
        assert "scratch tree" in used[0]

    def test_unused_waivers_flagged(self):
        unused = _by_rule(_fixture_report())["unused-waiver"]
        assert _anchors(unused) == [("unused.py", 5), ("unused.py", 9)]
        by_line = {v.line: v.message for v in unused}
        assert "suppresses nothing" in by_line[5]
        assert "empty justification" in by_line[9]

    def test_fixture_order_graph_shape(self):
        graph = _fixture_report().order_graph
        assert "wal-write" in graph.effects
        assert "log-sync" in graph.barriers
        assert graph.covers("wal-write", "log-sync")
        assert graph.covers("wal-write")  # device-level flush matches
        assert not graph.covers("nonsense-kind")


# ======================================================================
# Real tree: clean, and its graph covers the runtime alphabet
# ======================================================================
class TestRealTree:
    def test_real_tree_is_clean(self):
        report = _real_report()
        assert report.ok, [v.render() for v in report.violations]

    def test_real_tree_coverage(self):
        """The analyzer actually saw the tree: hundreds of functions,
        the WAL/tree/superblock effect sites, the sync/checkpoint
        entries, the cross-shard coordinator, the recovery slice."""
        report = _real_report()
        assert report.functions > 500
        assert report.effect_sites >= 20
        assert report.barrier_sites >= 10
        assert report.entries_checked >= 10
        assert report.coordinators >= 1
        assert report.recovery_reachable >= 50

    def test_real_graph_covers_every_runtime_kind(self):
        """Every effect kind the runtime recorder can emit must have a
        static edge, or --verify-order-graph could never pass."""
        graph = _real_report().order_graph
        for kind in ("wal-write", "node-write", "sb-write", "trim", "dev-write"):
            assert graph.covers(kind), kind

    def test_real_graph_core_edges(self):
        """The load-bearing orderings of the design: log before
        log-sync, nodes before tree-sync, superblock last."""
        pairs = {(e.src, e.dst) for e in _real_report().order_graph.edges}
        assert ("wal-write", "log-sync") in pairs
        assert ("node-write", "tree-sync") in pairs
        assert ("sb-write", "sb-sync") in pairs

    @pytest.mark.usefixtures("shared_program")
    def test_lint_composes_durflow(self, capsys):
        """Satellite: ``repro.check lint`` runs all five passes and
        reports the per-pass summary — rc and format are pinned."""
        assert lint.main([]) == 0
        out = capsys.readouterr().out
        assert (
            "repro.check lint: clean (lint=0 arch=0 costflow=0 conc=0 durflow=0)"
            in out
        )

    @pytest.mark.usefixtures("shared_program")
    def test_lint_json_reports_passes(self, capsys):
        assert lint.main(["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == {
            "lint": 0, "arch": 0, "costflow": 0, "conc": 0, "durflow": 0,
        }
        assert payload["durflow"]["order_edges"] > 10


# ======================================================================
# Runtime backstop: pure observer, statically covered
# ======================================================================
class TestOrderRecorder:
    def _drive(self, attach):
        stack = _Stack()
        log = None
        if attach:
            log = OrderLog()
            log.attach(stack.device, stack.layouts)
        for op in WORKLOADS["tokubench"](3):
            stack.apply(op)
        return stack, log

    def test_recorder_is_a_pure_observer(self):
        """Bit-identity: the same seeded workload produces the same
        device image and the same simulated clock with the recorder
        attached or absent."""
        bare, _ = self._drive(attach=False)
        observed, log = self._drive(attach=True)
        assert device_sha256(bare.device) == device_sha256(observed.device)
        assert bare.device.clock.now == observed.device.clock.now
        assert bare.device.clock.io_wait == observed.device.clock.io_wait
        assert log.pairs, "a durable workload must observe orderings"

    def test_observed_pairs_covered_statically(self):
        _, log = self._drive(attach=True)
        graph = _real_report().order_graph
        for effect, barrier in log.observed():
            assert barrier == "flush"
            assert graph.covers(effect, barrier), (effect, barrier)

    def test_offset_classification(self):
        stack = _Stack()
        spans = layout_spans(stack.layouts)
        pairs = set()
        rec = OrderRecorder(spans, pairs)
        layout = stack.layout
        rec.on_write(layout.base, 4096)
        rec.on_write(layout.log_base, 4096)
        rec.on_write(layout.meta_base, 4096)
        rec.on_write(layout.data_base, 4096)
        rec.on_discard(layout.data_base, 4096)
        assert rec._pending == {"sb-write", "wal-write", "node-write", "trim"}
        rec.on_flush()
        assert rec._pending == set()
        assert pairs == {
            ("sb-write", "flush"),
            ("wal-write", "flush"),
            ("node-write", "flush"),
            ("trim", "flush"),
        }
        # Offsets outside every volume span are generic device writes.
        rec.on_write(10**15, 512)
        assert rec._pending == {"dev-write"}

    @pytest.mark.usefixtures("shared_program")
    def test_torture_verify_order_graph(self, capsys):
        """Acceptance criterion: a fixed-seed torture sweep with
        ``--verify-order-graph`` passes, speaks on stderr only, and
        leaves the stdout JSON byte-identical to an unflagged run."""
        from repro.harness.__main__ import main as harness_main

        rc = harness_main(
            ["torture", "--seed", "5", "--budget", "8", "--verify-order-graph"]
        )
        flagged = capsys.readouterr()
        assert rc == 0
        assert "torture: order graph verified" in flagged.err
        assert "all covered statically" in flagged.err

        rc = harness_main(["torture", "--seed", "5", "--budget", "8"])
        plain = capsys.readouterr()
        assert rc == 0
        assert plain.out == flagged.out


# ======================================================================
# CLI: durflow subcommand, graph artifacts
# ======================================================================
@pytest.mark.usefixtures("shared_program")
class TestDurflowCLI:
    def test_clean_run_exit_zero(self, capsys):
        assert check_main(["durflow"]) == 0
        out = capsys.readouterr().out
        assert "repro.check durflow: clean" in out
        assert "durable-effect site(s)" in out

    def test_json_format_round_trips(self, capsys):
        assert check_main(["durflow", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["order_graph"]["edges"]
        assert payload["functions"] > 500

    def test_graph_out_writes_json_and_dot(self, tmp_path, capsys):
        prefix = str(tmp_path / "order-graph")
        assert check_main(["durflow", "--graph-out", prefix]) == 0
        data = json.loads((tmp_path / "order-graph.json").read_text())
        assert "wal-write" in data["effects"]
        assert "log-sync" in data["barriers"]
        dot = (tmp_path / "order-graph.dot").read_text()
        assert dot.startswith("digraph") and "wal-write" in dot


# ======================================================================
# Satellite: one waiver-hygiene contract across all four analyses
# ======================================================================
#: tool name -> analyze() over a tmp tree holding only waiver comments.
_HYGIENE_ANALYZES = {
    "arch": lambda root: arch.analyze(
        root=root, manifest=(("only", ("tpkg.mod",)),), package="tpkg"
    ),
    "costflow": lambda root: costflow.analyze(
        root=root, package="tpkg", exempt=()
    ),
    "conc": lambda root: conc.analyze(
        root=root, package="tpkg", manifest=(("only", ("tpkg.mod",)),)
    ),
    "durflow": lambda root: durflow.analyze(root=root, package="tpkg"),
}

#: tool name -> cached report over the tool's own fixture tree (which
#: holds a *used* waiver), for the used-is-printed half of the contract.
_FIXTURE_REPORTS = {
    "arch": lambda: arch.analyze(
        root=os.path.join(FIXTURES, "arch", "tree"),
        manifest=(
            ("high", ("fixpkg.high",)),
            ("mid", ("fixpkg.cyc_a", "fixpkg.cyc_b", "fixpkg.unused")),
            ("low", ("fixpkg.low",)),
        ),
        package="fixpkg",
    ),
    "costflow": lambda: costflow.analyze(
        root=os.path.join(FIXTURES, "costflow", "tree"),
        package="flowpkg",
        exempt=(),
    ),
    "conc": lambda: conc.analyze(
        root=os.path.join(FIXTURES, "conc", "tree"),
        package="concpkg",
        manifest=(
            ("scripts", ("concpkg.scripts",)),
            ("engine", ("concpkg.engine",)),
        ),
        signal_layers={"tree_io": "engine", "fsync": "scripts"},
    ),
    "durflow": _fixture_report,
}


class TestWaiverHygieneAcrossPasses:
    """Satellite: the four whole-program passes share one waiver
    contract — empty reason is an error, dead waiver is an error, used
    waivers are always printed, and waivers survive the JSON round
    trip.  Parametrized so a fifth pass must join or visibly opt out."""

    @pytest.mark.parametrize("tool", sorted(_HYGIENE_ANALYZES))
    def test_empty_and_dead_waivers_are_errors(self, tool, tmp_path):
        (tmp_path / "mod.py").write_text(
            f"X = 1  # {tool}: allow[]\n"
            f"Y = 2  # {tool}: allow[dead reason nothing consumes]\n"
        )
        report = _HYGIENE_ANALYZES[tool](str(tmp_path))
        hygiene = [v for v in report.violations if v.rule == "unused-waiver"]
        assert sorted(v.line for v in hygiene) == [1, 2], [
            v.render() for v in report.violations
        ]
        by_line = {v.line: v.message for v in hygiene}
        assert "empty justification" in by_line[1]
        assert "suppresses nothing" in by_line[2]

    @pytest.mark.parametrize("tool", sorted(_FIXTURE_REPORTS))
    def test_used_waivers_are_printed_and_round_trip(self, tool):
        key = f"hygiene:{tool}"
        if key not in _CACHE:
            _CACHE[key] = _FIXTURE_REPORTS[tool]()
        report = _CACHE[key]
        assert report.waivers, tool
        assert all("allow[" in w for w in report.waivers)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["waivers"] == list(report.waivers)
