"""Tests for the wall-clock bench harness and its CI perf gate.

Covers schema-versioned summaries, two same-seed runs byte-identical
once volatile (wall/memory) fields are stripped, ``--check`` passing
against a self-blessed ``BENCH_<scale>.json`` and failing on any
simulated difference from a modified copy (wall and memory only
advisory), and the layer-attribution profiler.
"""

import copy
import json
import math
import os
import re

import pytest

from repro.harness import bench
from repro.harness.bench import (
    BENCH_WORKLOADS,
    SCHEMA,
    advisory_ratios,
    check_against_baseline,
    load_baseline,
    run_bench,
    strip_volatile,
    to_json,
    write_artifact,
)
from repro.obs.prof import WallProfiler, layer_of_file, module_of_file, wall_ns
from repro.workloads.scale import SMOKE_SCALE

#: Cheapest two workloads; reps=1 and no memory rep keep tests fast.
FAST = dict(scale=SMOKE_SCALE, reps=1, memory=False, workloads=["mailserver"])


@pytest.fixture(scope="module")
def summary():
    """One shared fast bench run (module-scoped: runs are ~100 ms)."""
    return run_bench(**FAST)


# ======================================================================
# Summary shape + determinism
# ======================================================================
class TestBenchSummary:
    def test_schema_and_fields(self, summary):
        assert summary["schema"] == SCHEMA
        assert summary["scale"] == "smoke"
        entry = summary["workloads"]["mailserver"]
        assert entry["ops"] == SMOKE_SCALE.mail_ops
        assert entry["simulated_seconds"] > 0
        assert entry["wall_seconds"]["min"] <= entry["wall_seconds"]["median"]
        assert len(entry["wall_seconds"]["all"]) == 1
        assert entry["ops_per_wall_second"] > 0
        assert entry["ops_per_sim_second"] > 0
        assert entry["sim_deterministic"] is True

    def test_memory_rep_reports_peak(self):
        out = run_bench(
            scale=SMOKE_SCALE, reps=1, memory=True, workloads=["mailserver"]
        )
        peak = out["workloads"]["mailserver"]["peak_mem_bytes"]
        assert peak > 100_000  # a real workload allocates real memory

    def test_two_runs_byte_identical_after_strip(self, summary):
        """Satellite: same seed, same bytes — the deterministic core of
        the summary cannot depend on wall time or ambient state."""
        again = run_bench(**FAST)
        assert to_json(strip_volatile(summary)) == to_json(strip_volatile(again))
        # ... and stripping removed every volatile field.
        stripped = json.loads(to_json(strip_volatile(summary)))
        entry = stripped["workloads"]["mailserver"]
        assert "wall_seconds" not in entry
        assert "ops_per_wall_second" not in entry
        assert "peak_mem_bytes" not in entry
        assert entry["simulated_seconds"] > 0

    def test_multi_rep_sim_is_deterministic(self):
        out = run_bench(
            scale=SMOKE_SCALE, reps=2, memory=False, workloads=["mailserver"]
        )
        entry = out["workloads"]["mailserver"]
        assert entry["sim_deterministic"] is True
        assert len(entry["wall_seconds"]["all"]) == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            run_bench(scale=SMOKE_SCALE, reps=1, workloads=["nope"])

    def test_workload_registry_names(self):
        names = {wl.name for wl in BENCH_WORKLOADS}
        assert names == {"tokubench", "mailserver", "mailserver_mt", "fig2a_tar"}


# ======================================================================
# Gate against the committed BENCH_<scale>.json
# ======================================================================
def blessed_copy(summary):
    """The summary as its own committed file (``bench --out .``)."""
    return json.loads(to_json(summary))


class TestBaselineGate:
    def test_self_blessed_baseline_passes(self, summary, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "REPO_ROOT", str(tmp_path))
        write_artifact(summary, str(tmp_path))
        committed = load_baseline("smoke")
        assert check_against_baseline(summary, committed) == []

    def test_wall_and_memory_ratios_are_advisory(self, summary):
        """A committed file claiming the suite used to run a million
        times faster (and leaner) is reported, never a failure."""
        committed = blessed_copy(summary)
        blessed = committed["workloads"]["mailserver"]
        blessed["wall_seconds"]["median"] /= 1e6
        blessed["peak_mem_bytes"] = 1
        assert check_against_baseline(summary, committed) == []
        [line] = advisory_ratios(summary, committed)
        assert line.startswith("mailserver: wall x")
        # No memory field in this summary (memory=False): no mem ratio.
        assert "peak memory" not in line
        run = copy.deepcopy(summary)
        run["workloads"]["mailserver"]["peak_mem_bytes"] = 3000
        assert check_against_baseline(run, committed) == []
        [line] = advisory_ratios(run, committed)
        assert line.endswith(", peak memory x3000.00")

    def test_sim_drift_detected(self, summary):
        """Exact, as benchmarks/check_exact.py: one ulp is drift."""
        committed = blessed_copy(summary)
        blessed = committed["workloads"]["mailserver"]
        blessed["simulated_seconds"] = math.nextafter(blessed["simulated_seconds"], 1.0)
        failures = check_against_baseline(summary, committed)
        assert any("simulated-time drift" in f for f in failures)

    def test_nondeterministic_run_detected(self, summary):
        run = copy.deepcopy(summary)
        run["workloads"]["mailserver"]["sim_deterministic"] = False
        failures = check_against_baseline(run, blessed_copy(summary))
        assert failures == ["mailserver: simulated results differ across reps"]

    def test_ops_mismatch_detected(self, summary):
        committed = blessed_copy(summary)
        committed["workloads"]["mailserver"]["ops"] += 1
        failures = check_against_baseline(summary, committed)
        assert any("op count" in f for f in failures)

    def test_missing_scale_section_reported(self, summary):
        committed = blessed_copy(summary)
        committed["scale"] = "default"
        failures = check_against_baseline(summary, committed)
        assert len(failures) == 1
        assert "no section for scale" in failures[0]

    def test_workload_set_drift_reported(self, summary):
        committed = blessed_copy(summary)
        committed["workloads"]["ghost"] = copy.deepcopy(
            committed["workloads"]["mailserver"]
        )
        failures = check_against_baseline(summary, committed)
        assert any("missing from this run" in f for f in failures)
        del committed["workloads"]["mailserver"]
        failures = check_against_baseline(summary, committed)
        assert any("not in the committed" in f for f in failures)

    def test_committed_baseline_is_valid_and_covers_smoke(self):
        """The repo's committed BENCH files (smoke, which CI gates, and
        default) must parse, carry the current schema, and cover every
        bench workload on one trajectory."""
        for scale in ("smoke", "default"):
            committed = load_baseline(scale)
            assert committed["schema"] == SCHEMA
            assert committed["scale"] == scale
            workloads = committed["workloads"]
            assert set(workloads) == {wl.name for wl in BENCH_WORKLOADS}
            for entry in workloads.values():
                assert entry["wall_seconds"]["median"] > 0
                assert entry["simulated_seconds"] > 0
                assert entry["sim_deterministic"] is True

    def test_cli_check_exits_nonzero_on_inflated_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        """End-to-end: the perf gate's exit-code contract, against a
        modified copy of the committed file."""
        from repro.harness.__main__ import main

        argv = [
            "bench", "--scale", "smoke", "--reps", "1", "--quiet",
            "--workloads", "mailserver",
        ]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        monkeypatch.setattr(bench, "REPO_ROOT", str(tmp_path))
        capsys.readouterr()
        assert main([*argv, "--check"]) == 0
        err = capsys.readouterr().err
        assert "bench --check (advisory): mailserver: wall x" in err
        assert "match the committed BENCH_smoke.json" in err

        committed = load_baseline("smoke")
        committed["workloads"]["mailserver"]["simulated_seconds"] *= 1.01
        (tmp_path / "BENCH_smoke.json").write_text(to_json(committed))
        assert main([*argv, "--check"]) == 1
        assert "BENCH MISMATCH: mailserver: simulated-time drift" in capsys.readouterr().err

    def test_cli_emits_artifact(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        rc = main(
            [
                "bench", "--scale", "smoke", "--reps", "1", "--quiet",
                "--workloads", "mailserver", "--out", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        path = tmp_path / "BENCH_smoke.json"
        assert path.exists()
        artifact = json.loads(path.read_text())
        assert artifact["schema"] == SCHEMA
        assert "mailserver" in artifact["workloads"]


# ======================================================================
# Profiler layer attribution
# ======================================================================
class TestWallProfiler:
    def test_layer_of_file_maps_package_paths(self):
        root = os.path.dirname(bench.__file__)  # src/repro/harness
        pkg = os.path.dirname(root)  # src/repro
        assert layer_of_file(os.path.join(pkg, "core", "tree.py")) == "core"
        assert layer_of_file(os.path.join(pkg, "device", "block.py")) == "device"
        assert layer_of_file(os.path.join(pkg, "check", "errors.py")) == "errors"
        assert layer_of_file(os.path.join(pkg, "obs", "prof.py")) == "obs"
        assert layer_of_file("~") == "(builtin)"
        assert layer_of_file("/usr/lib/python3/json/__init__.py") == "(other)"
        assert module_of_file(os.path.join(pkg, "core", "tree.py")) == (
            "repro.core.tree"
        )

    def test_profile_attributes_wall_time_to_layers(self):
        prof = WallProfiler()
        with prof:
            run_bench(**FAST)
        table = {row["layer"]: row for row in prof.layer_table()}
        # A real workload must show self time in the simulated stack.
        assert "core" in table and table["core"]["tottime"] > 0
        assert "vfs" in table
        assert table["core"]["calls"] > 100
        top = prof.top_functions(5)
        assert len(top) == 5
        assert top[0]["tottime"] >= top[-1]["tottime"]

    def test_collapsed_stack_format(self):
        prof = WallProfiler()
        with prof:
            run_bench(**FAST)
        lines = prof.collapsed().splitlines()
        assert lines
        pat = re.compile(r"^[^;]+;[^;]+;.+ \d+$")
        for line in lines:
            assert pat.match(line), line

    def test_wall_ns_is_monotonic(self):
        a = wall_ns()
        b = wall_ns()
        assert b >= a
