"""Tests for ``repro.check.flow``: the floor under the whole-program
analyses.

* ``lint`` parses every source file exactly once, however many
  analyses it composes;
* an analysis handed a shared ``Program`` reports exactly what it
  reports when it builds its own — on the real tree and on every
  fixture tree — so sharing is an optimisation, never a semantic;
* every analysis' output over each fixture tree equals its committed
  golden, byte for byte;
* the one SCC routine (it replaced three private copies that were
  only ever tested through their callers);
* the join laws of every ``flow.State`` lattice: the walker copies a
  state by self-joining it and joins paths in whatever order the code
  meets them, so each join must be idempotent, commutative and
  associative (and durflow's vacuous state its unit).
"""

import ast
import collections
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import arch, conc, costflow, durflow, flow, lint
from tests.conftest import real_program

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: tree name -> (root, package, per-analysis keyword arguments).  Each
#: fixture tree gets its own analysis' fixture configuration; the other
#: three analyses run over it with their defaults (whatever they
#: report, shared and standalone must agree).
TREES = {
    "real": (None, "repro", {}),
    "arch": (
        os.path.join(FIXTURES, "arch", "tree"),
        "fixpkg",
        {
            arch: {
                "manifest": (
                    ("root", ("fixpkg",)),
                    ("high", ("fixpkg.high",)),
                    ("mid", ("fixpkg.cyc_a", "fixpkg.cyc_b", "fixpkg.unused")),
                    ("low", ("fixpkg.low",)),
                )
            }
        },
    ),
    "costflow": (
        os.path.join(FIXTURES, "costflow", "tree"),
        "flowpkg",
        {costflow: {"exempt": ()}},
    ),
    "conc": (
        os.path.join(FIXTURES, "conc", "tree"),
        "concpkg",
        {
            conc: {
                "manifest": (
                    ("scripts", ("concpkg.scripts",)),
                    ("engine", ("concpkg.engine",)),
                ),
                "signal_layers": {"tree_io": "engine", "fsync": "scripts"},
            }
        },
    ),
    "durflow": (os.path.join(FIXTURES, "durflow", "tree"), "durpkg", {}),
}


def _snapshot(report):
    """Everything a report says, graphs included."""
    out = {
        "report": report.to_dict(),
        "stats": report.stats(),
        "summary": report.summary(),
    }
    for name in ("lock_graph", "order_graph"):
        graph = getattr(report, name, None)
        if graph is not None:
            out[name] = [graph.to_dict(), graph.to_dot()]
    if isinstance(report, arch.ArchReport):
        out["dot"] = report.to_dot()
    return out


#: The fixture trees whose reports are pinned byte for byte (the real
#: tree's line numbers move with every change, so it is not).
GOLDEN_TREES = sorted(tree for tree in TREES if tree != "real")


def _golden_path(tree):
    return os.path.join(FIXTURES, tree, "golden.json")


def _golden_text(tree):
    """Every analysis' snapshot over fixture ``tree`` as JSON text, the
    fixtures directory replaced so the text is checkout-independent."""
    root, package, overrides = TREES[tree]
    program = flow.load_program(root, package)
    snapshots = {
        name: _snapshot(analysis.analyze(program=program, **overrides.get(analysis, {})))
        for name, analysis in lint.ANALYSES.items()
    }
    text = json.dumps(snapshots, indent=1, sort_keys=True) + "\n"
    return text.replace(FIXTURES, "<fixtures>")


class TestParseOnce:
    def test_lint_parses_each_source_file_once(self, monkeypatch, capsys):
        """Five passes, one parse: the composed run may call
        ``ast.parse`` at most once per (non-empty) source file."""
        expected = collections.Counter()
        for full, _rel in flow.walk_tree(flow.repo_root()):
            with open(full, "rb") as fh:
                expected[fh.read()] += 1
        del expected[b""]  # empty __init__ files are indistinguishable
        parsed = collections.Counter()
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            if isinstance(source, bytes) and source:
                parsed[source] += 1
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert lint.main([]) == 0
        capsys.readouterr()
        assert len(parsed) > 100  # the wrapper really saw the tree
        assert parsed == expected


class TestSharedProgramEquivalence:
    @pytest.mark.parametrize("tree", sorted(TREES))
    def test_shared_program_reports_equal_standalone(self, tree):
        root, package, overrides = TREES[tree]
        # The real tree's shared Program is the one the other test
        # modules have been (or will be) analyzing all session.
        shared = real_program() if root is None else flow.load_program(root, package)
        for name, analysis in lint.ANALYSES.items():
            kwargs = overrides.get(analysis, {})
            alone = analysis.analyze(root=root, package=package, **kwargs)
            together = analysis.analyze(program=shared, **kwargs)
            assert _snapshot(together) == _snapshot(alone), name
            if name == tree:
                # A degenerate (empty) report would agree trivially.
                assert alone.violations, name


class TestGoldenReports:
    """A refactor of ``repro.check`` is proven by these alone: every
    report, counter, summary line and graph over each fixture tree
    equals the committed ``tests/fixtures/<tree>/golden.json``.  A
    deliberate change re-blesses with ``PYTHONPATH=src python -m
    tests.test_flow``."""

    @pytest.mark.parametrize("tree", GOLDEN_TREES)
    def test_reports_match_golden(self, tree):
        with open(_golden_path(tree), encoding="utf-8") as fh:
            golden = fh.read()
        assert _golden_text(tree) == golden


class TestSccs:
    @staticmethod
    def _run(graph):
        return flow.sccs(graph, lambda n: graph[n])

    def test_dag_is_all_singletons_callees_first(self):
        graph = {"a": ["b", "c"], "b": ["c"], "c": []}
        assert self._run(graph) == [["c"], ["b"], ["a"]]
        assert flow.cycles(graph, lambda n: graph[n]) == []

    def test_two_components_and_a_bridge(self):
        graph = {
            "a": ["b"], "b": ["a", "c"],  # {a, b} -> {c, d}
            "c": ["d"], "d": ["c"],
            "e": [],
        }
        assert self._run(graph) == [["c", "d"], ["a", "b"], ["e"]]
        assert flow.cycles(graph, lambda n: graph[n]) == [["a", "b"], ["c", "d"]]

    def test_self_loop_is_a_cycle_of_one(self):
        graph = {"a": ["a"], "b": []}
        assert self._run(graph) == [["a"], ["b"]]
        assert flow.cycles(graph, lambda n: graph[n]) == [["a"]]

    def test_order_is_independent_of_insertion_order(self):
        edges = [("x", "y"), ("y", "z"), ("z", "x"), ("z", "w"), ("q", "x")]
        runs = []
        for ordering in (edges, edges[::-1]):
            graph = {}
            for src, dst in ordering:
                graph.setdefault(dst, [])
                graph.setdefault(src, []).append(dst)
            runs.append(self._run(graph))
        assert runs[0] == runs[1] == [["w"], ["x", "y", "z"], ["q"]]

    def test_deep_chain_does_not_recurse(self):
        n = 5000  # far past the interpreter's recursion limit
        graph = {f"n{i:05d}": [f"n{i + 1:05d}"] for i in range(n)}
        graph[f"n{n:05d}"] = []
        assert len(self._run(graph)) == n + 1


def _fields(state):
    return {name: getattr(state, name) for name in state.JOIN}


def _assert_join_laws(a, b, c):
    assert _fields(a.merge(a)) == _fields(a.copy()) == _fields(a)
    assert _fields(a.merge(b)) == _fields(b.merge(a))
    assert _fields(a.merge(b).merge(c)) == _fields(a.merge(b.merge(c)))


_LOCK_CLASSES = [("folder:", False), ("vol", True), conc.UNKNOWN]
_BINDINGS = [("key", ("vol", True)), ("list", frozenset(_LOCK_CLASSES[:1]), True), ("signal",)]
_conc_states = st.builds(
    conc._State,
    held=st.dictionaries(st.sampled_from(_LOCK_CLASSES), st.integers(1, conc._MANY)),
    crit=st.integers(0, 2),
    vars=st.dictionaries(st.sampled_from("abk"), st.sampled_from(_BINDINGS)),
)
_durflow_states = st.builds(
    durflow._State,
    logged=st.booleans(),
    barriered=st.booleans(),
    nodes_dirty=st.booleans(),
    sb_dirty=st.booleans(),
    pending=st.sets(st.sampled_from(["node-write", "sb-write", "wal-write", "intent-put"])),
    coord=st.booleans(),
    phase=st.integers(0, 4),
    apply_dirty=st.booleans(),
)


class TestJoinLaws:
    @settings(max_examples=200, deadline=None)
    @given(_conc_states, _conc_states, _conc_states)
    def test_conc_state(self, a, b, c):
        _assert_join_laws(a, b, c)

    @settings(max_examples=200, deadline=None)
    @given(_durflow_states, _durflow_states, _durflow_states)
    def test_durflow_state(self, a, b, c):
        _assert_join_laws(a, b, c)
        unit = durflow._State(**durflow._State.UNIT)
        assert _fields(unit.merge(a)) == _fields(a) == _fields(a.merge(unit))


if __name__ == "__main__":
    for name in GOLDEN_TREES:
        with open(_golden_path(name), "w", encoding="utf-8") as out:
            out.write(_golden_text(name))
        print(f"wrote {_golden_path(name)}")
