"""Tests for the whole-program analyses: repro.check.arch + costflow.

Two families:

* fixture trees under ``tests/fixtures/arch`` and
  ``tests/fixtures/costflow`` prove each rule *can* fire (a rule whose
  failing fixture passes is a rule that checks nothing);
* self-tests prove the real ``src/repro`` tree is clean, so any new
  violation is a regression introduced by the change under review.
"""

import json
import os

import pytest

from repro.check import arch, conc, costflow, durflow, flow, lint
from repro.check.__main__ import main as check_main
from tests.conftest import real_program

ARCH_TREE = os.path.join(os.path.dirname(__file__), "fixtures", "arch", "tree")
FLOW_TREE = os.path.join(
    os.path.dirname(__file__), "fixtures", "costflow", "tree"
)

#: Layer manifest for the arch fixture tree (top -> bottom).
FIX_MANIFEST = (
    ("root", ("fixpkg",)),
    ("high", ("fixpkg.high",)),
    ("mid", ("fixpkg.cyc_a", "fixpkg.cyc_b", "fixpkg.unused")),
    ("low", ("fixpkg.low",)),
)


def _arch_fixture_report():
    return arch.analyze(root=ARCH_TREE, manifest=FIX_MANIFEST, package="fixpkg")


def _flow_fixture_report():
    return costflow.analyze(root=FLOW_TREE, package="flowpkg", exempt=())


# ======================================================================
# Architecture analysis
# ======================================================================
class TestArchFixtures:
    def test_every_rule_fires_exactly_once(self):
        report = _arch_fixture_report()
        by_rule = {}
        for violation in report.violations:
            by_rule.setdefault(violation.rule, []).append(violation)
        assert set(by_rule) == {
            "layer-violation",
            "import-cycle",
            "unclassified-module",
            "unused-waiver",
        }, [v.render() for v in report.violations]
        for rule, found in by_rule.items():
            assert len(found) == 1, (rule, [v.render() for v in found])

    def test_layer_violation_names_both_layers(self):
        report = _arch_fixture_report()
        [violation] = [
            v for v in report.violations if v.rule == "layer-violation"
        ]
        assert violation.path.endswith(os.path.join("low", "bad.py"))
        assert "'low'" in violation.message and "'high'" in violation.message

    def test_cycle_reports_a_real_path(self):
        report = _arch_fixture_report()
        [violation] = [v for v in report.violations if v.rule == "import-cycle"]
        msg = violation.message
        assert "fixpkg.cyc_a" in msg and "fixpkg.cyc_b" in msg
        # The rendered chain starts and ends on the same module.
        chain = msg.split("import cycle: ")[1].split(" -> ")
        assert chain[0] == chain[-1]

    def test_waiver_suppresses_exactly_one_finding(self):
        """The waived upward edge (waived_ok.py) is silent; the unwaived
        twin (bad.py) still fires.  Used waivers stay visible."""
        report = _arch_fixture_report()
        layer_paths = [
            v.path for v in report.violations if v.rule == "layer-violation"
        ]
        assert not any("waived_ok" in p for p in layer_paths)
        assert any(p.endswith("bad.py") for p in layer_paths)
        assert any("waived_ok" in w for w in report.waivers)

    def test_unused_waiver_is_an_error(self):
        report = _arch_fixture_report()
        [violation] = [v for v in report.violations if v.rule == "unused-waiver"]
        assert violation.path.endswith("unused.py")
        assert "suppresses nothing" in violation.message

    def test_graph_export_round_trips(self, tmp_path):
        report = _arch_fixture_report()
        prefix = str(tmp_path / "graph")
        files = flow.write_graph(report.import_graph, prefix)
        assert sorted(files) == sorted([prefix + ".json", prefix + ".dot"])
        with open(prefix + ".json") as fh:
            payload = json.load(fh)
        assert payload["modules"]["fixpkg.low.bad"] == "low"
        assert any(
            e["src"] == "fixpkg.cyc_a" and e["dst"] == "fixpkg.cyc_b"
            for e in payload["edges"]
        )
        with open(prefix + ".dot") as fh:
            dot = fh.read()
        assert dot.startswith("digraph") and "fixpkg.cyc_a" in dot

    def test_empty_waiver_reason_is_an_error(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("import emptypkg.b  # arch: allow[]\n")
        (pkg / "b.py").write_text("VALUE = 1\n")
        report = arch.analyze(
            root=str(pkg),
            manifest=(("only", ("emptypkg.a", "emptypkg.b")),),
            package="emptypkg",
        )
        assert any(
            v.rule == "unused-waiver" and "empty justification" in v.message
            for v in report.violations
        ), [v.render() for v in report.violations]


class TestArchRealTree:
    def test_real_tree_is_clean(self):
        report = arch.analyze(program=real_program())
        assert report.ok, "\n".join(v.render() for v in report.violations)

    def test_every_real_waiver_is_used_and_justified(self):
        report = arch.analyze(program=real_program())
        for rendered in report.waivers:
            reason = rendered.split("allow[", 1)[1].rstrip("]")
            assert reason.strip(), rendered

    def test_manifest_matches_discovered_packages(self):
        """Satellite: the committed layer manifest and the package list
        on disk cannot drift apart silently."""
        assert arch.manifest_packages() == arch.discovered_packages()

    def test_known_edges_present(self):
        """Spot-check the graph is real: core sits above storage, the
        harness sits above everything it drives."""
        report = arch.analyze(program=real_program())
        edges = {(e.src, e.dst) for e in report.edges}
        assert ("repro.core.tree", "repro.core.serialize") in edges
        assert ("repro.core.env", "repro.core.wal") in edges
        layer = report.modules
        assert layer["repro.core.tree"] == "core"
        assert layer["repro.device.block"] == "device"
        assert layer["repro.check.errors"] == "errors"


# ======================================================================
# Cost-flow analysis
# ======================================================================
class TestCostflowFixtures:
    def test_uncharged_bytes_fires_on_leaky_class(self):
        report = _flow_fixture_report()
        uncharged = [
            v for v in report.violations if v.rule == "uncharged-bytes"
        ]
        assert len(uncharged) == 1, [v.render() for v in report.violations]
        [violation] = uncharged
        assert violation.path.endswith("bad.py")
        assert "store.read()" in violation.message
        assert "Leaky.drain" in violation.message  # call-chain evidence

    def test_charging_caller_dominates_helper(self):
        """good.py's load() moves bytes uncharged but every caller
        charges first: no finding."""
        report = _flow_fixture_report()
        assert not any("good.py" in v.path for v in report.violations)

    def test_waiver_suppresses_exactly_one_finding(self):
        report = _flow_fixture_report()
        assert not any(
            "waived.py" in v.path and v.rule == "uncharged-bytes"
            for v in report.violations
        )
        assert any("waived.py" in w for w in report.waivers)
        # The unwaived finding in bad.py is still reported.
        assert any("bad.py" in v.path for v in report.violations)

    def test_unused_waiver_is_an_error(self):
        report = _flow_fixture_report()
        [violation] = [
            v for v in report.violations if v.rule == "unused-waiver"
        ]
        assert violation.path.endswith("unused.py")

    def test_report_dict_round_trips(self):
        report = _flow_fixture_report()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["sources_checked"] == report.sources_checked
        assert len(payload["violations"]) == len(report.violations)


class TestCostflowRealTree:
    def test_real_tree_is_clean(self):
        report = costflow.analyze(program=real_program())
        assert report.ok, "\n".join(v.render() for v in report.violations)

    def test_analysis_actually_sees_the_program(self):
        """Guard against a silently degenerate analysis: the call graph
        and the sink/source sets must stay populated."""
        report = costflow.analyze(program=real_program())
        assert report.functions > 500
        assert report.call_edges > 800
        assert report.charging_functions > 100
        assert report.sources_checked > 20


# ======================================================================
# CLI composition
# ======================================================================
class TestCheckCli:
    @pytest.mark.usefixtures("shared_program")
    def test_json_format_round_trips(self, capsys):
        assert lint.main(["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["arch"]["modules"] > 50
        assert payload["costflow"]["functions"] > 500
        assert all("allow[" in w for w in payload["waivers"])

    @pytest.mark.usefixtures("shared_program")
    def test_graph_out_writes_artifacts(self, capsys, tmp_path):
        """One lint run archives the graph of every analysis that has
        one, through the writer the standalone runs use."""
        prefix = str(tmp_path / "graph")
        assert lint.main(["--format", "json", "--graph-out", prefix]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = [
            f"{prefix}-{tool}.{ext}"
            for tool in ("arch", "conc", "durflow")
            for ext in ("json", "dot")
        ]
        assert payload["graph_files"] == expected
        for path in expected:
            assert os.path.exists(path)
        with open(f"{prefix}-conc.json") as fh:
            assert json.load(fh) == conc.analyze(program=real_program()).lock_graph.to_dict()

    @pytest.mark.usefixtures("shared_program")
    def test_subcommands_run_standalone(self, capsys):
        assert check_main(["arch"]) == 0
        assert "clean" in capsys.readouterr().out
        assert check_main(["costflow"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_help_lists_every_analysis(self, capsys):
        """The usage is derived from ``lint.ANALYSES`` and each report's
        ``ABOUT``/``GRAPH``: a new analysis cannot be missing from it."""
        assert check_main(["--help"]) == 0
        usage = capsys.readouterr().err.splitlines()[1:]
        rows = {line.split()[0]: line for line in usage}
        assert list(rows) == ["lint", *lint.ANALYSES]
        for kind in (
            arch.ArchReport, costflow.CostflowReport, conc.ConcReport,
            durflow.DurflowReport,
        ):
            assert kind.ABOUT in rows[kind.TOOL]
            assert ("--graph-out" in rows[kind.TOOL]) == (kind.GRAPH is not None)

    def test_costflow_cli_flags_fixture_free_tree(self, capsys, monkeypatch):
        """Exit-code contract: violations -> 1."""
        fixture_report = _flow_fixture_report()
        monkeypatch.setattr(
            costflow, "analyze", lambda *a, **k: fixture_report
        )
        assert check_main(["costflow"]) == 1
        out = capsys.readouterr().out
        assert "[uncharged-bytes]" in out
