"""Self-tests of the benchmark, at the ``--tiny`` size.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Outside tier-1 (``testpaths = ["tests"]``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import compare, counts, kernels, traces
from perfbench.metrics import END_TO_END, KERNELS, LAYERS, PER_LAYER
from perfbench.replay import run_rep
from perfbench.run import ROOT
from perfbench.trace import SpanTracer
from perfbench.workloads import WORKLOADS, build_trace

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _rep(name, seed=11, **kwargs):
    w = WORKLOADS[name]
    trace = build_trace(w, seed, traces.TINY)
    return run_rep(w, trace, **kwargs)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_trace_is_a_function_of_the_seed(name):
    w = WORKLOADS[name]
    sha = traces.trace_sha256(build_trace(w, 11, traces.TINY))
    assert sha == traces.trace_sha256(build_trace(w, 11, traces.TINY))
    assert sha != traces.trace_sha256(build_trace(w, 12, traces.TINY))


def test_shared_traces_are_byte_identical():
    def sha(name):
        return traces.trace_sha256(build_trace(WORKLOADS[name], 5, traces.TINY))

    assert sha("mail_fsync") == sha("mail_fsync_ext4")
    assert sha("mail_mt8") == sha("mail_mt8_shard4")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_replays_and_verifies_clean(name):
    rep = _rep(name, verify=True)
    assert rep.failed == 0
    assert rep.attempted > 0
    assert rep.sim_s > 0 and rep.write_amp > 0


def test_a_tampered_read_is_counted_as_a_failure():
    def tamper(mount):
        honest = mount.vfs.read

        def lying_read(path, offset, length):
            data = honest(path, offset, length)
            return bytes([data[0] ^ 1]) + data[1:] if data else data

        mount.vfs.read = lying_read

    assert _rep("mail_fsync", tamper=tamper).failed > 0
    assert _rep("mail_mt8", tamper=tamper).failed > 0


def test_a_missing_dirent_fails_but_a_repeated_one_is_only_counted():
    from perfbench.shadow import Shadow

    shadow = Shadow()
    for name in ("a", "b"):
        shadow.apply(("create", f"/{name}"), None)
    assert shadow.apply(("readdir", "/"), [("a", None), ("b", None)])
    assert shadow.apply(("readdir", "/"), [("a", None), ("a", None), ("b", None)])
    assert shadow.dup_dirents == 1
    assert not shadow.apply(("readdir", "/"), [("a", None)])
    assert not shadow.apply(("readdir", "/"), [("a", None), ("b", None), ("c", None)])


@pytest.mark.parametrize("name", ["smallfile_create", "mail_mt8_shard4", "mail_fsync_ext4"])
def test_span_wrappers_are_pure_observers(name):
    plain = _rep(name)
    tracer = SpanTracer()
    traced = _rep(name, tracer=tracer)
    assert len(tracer) > 1000
    assert (traced.sim_s, traced.device_sha256) == (plain.sim_s, plain.device_sha256)
    # ... and they are gone afterwards: the next rep records nothing.
    spans = len(tracer)
    _rep(name)
    assert len(tracer) == spans


def test_layer_self_times_sum_to_the_root_span():
    tracer = SpanTracer()
    _rep("mail_mt8", tracer=tracer)
    table = tracer.layer_table()
    root_host = (tracer.h1[0] - tracer.h0[0]) * 1e-9
    root_sim = tracer.s1[0] - tracer.s0[0]
    assert tracer.parent[0] == -1 and tracer.layer[0] == LAYERS.index("perfbench")
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(root_host)
    assert sum(row["sim_self_s"] for row in table.values()) == pytest.approx(root_sim)
    assert table["sched"]["calls"] > 0 and table["core.tree"]["calls"] > 0
    assert table["baselines"]["calls"] == 0


def test_self_time_is_total_minus_children():
    class Clock:
        now = 0.0

    class Layer:
        def outer(self, clock, inner):
            clock.now += 1.0
            inner.work(clock)
            inner.work(clock)
            clock.now += 0.5

        def work(self, clock):
            clock.now += 2.0

    clock, outer, inner = Clock(), Layer(), Layer()
    tracer = SpanTracer()
    tracer.attach(clock, [(outer, "vfs"), (inner, "device")])
    tracer.begin()
    outer.outer(clock, inner)
    tracer.end()
    tracer.detach()
    table = tracer.layer_table()
    assert table["vfs"]["sim_self_s"] == pytest.approx(1.5)
    assert table["device"]["sim_self_s"] == pytest.approx(4.0)
    assert table["device"]["calls"] == 2
    assert table["perfbench"]["sim_self_s"] == pytest.approx(0.0)
    assert "outer" not in vars(outer)
    host_self, _ = tracer.self_times()
    assert all(ns >= 0 for ns in host_self)


def test_counts_and_kernels_cover_every_per_layer_name():
    tracer = SpanTracer()
    rep = _rep("smallfile_create", tracer=tracer, keep=True)
    names = {f"{layer}.{key}" for layer in LAYERS for key in ("calls", "self_s", "sim_self_s")}
    names |= set(counts.collect(rep))
    names |= {"perfbench.trace_overhead_frac", "perfbench.rep_drift", "vfs.dup_dirents"}
    values = kernels.run(rep.mount)
    assert set(values) == set(KERNELS)
    assert all(v > 0 for v in values.values())
    assert names | set(values) == {m.name for m in PER_LAYER}
    assert len(PER_LAYER) <= 128


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
        if m.driver
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_driver_contract_of_the_result_line(trace_flag):
    proc = _run(["--workload", "mail_mt8", "--seed", "7", "--seconds", "0.5",
                 "--trace", trace_flag, "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = PER_LAYER if trace_flag == "1" else [m for m in END_TO_END if m.driver]
    assert list(result["metrics"]) == [m.name for m in wanted]
    for m in wanted:
        assert result["metrics"][m.name]["unit"] == m.unit
    if trace_flag == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_simulator_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mail_fsync", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_suite_document_and_compare(tmp_path):
    out = tmp_path / "a.json"
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--tiny", "--seconds", "0.3", "--seed", "4",
         "--workload", "mail_fsync", "--workload", "bigfile_rw", "--traced",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    for m in END_TO_END:
        assert m.name in proc.stdout
    assert "perfbench.trace_overhead_frac" in proc.stdout
    doc = json.loads(out.read_text())
    header = doc["header"]
    assert header["schema"] == {"name": "perfbench", "version": 1}
    assert header["seed"] == 4 and header["nproc"] == os.cpu_count()
    assert set(header["traces"]) == {"mail_fsync", "bigfile_rw"}
    assert out.read_text() == json.dumps(doc, indent=1, sort_keys=True) + "\n"

    # Identical documents pass; an inflated host metric and a moved
    # exact metric are each flagged.
    assert compare.compare(doc, doc) == []
    slower = json.loads(out.read_text())
    slower["workloads"]["mail_fsync"]["end_to_end"]["host_call_p50_us"]["value"] *= 1.5
    assert any("host_call_p50_us" in line for line in compare.compare(doc, slower))
    moved = json.loads(out.read_text())
    moved["workloads"]["bigfile_rw"]["end_to_end"]["write_amp"]["value"] += 1e-9
    moved["workloads"]["bigfile_rw"]["per_layer"]["device.writes"]["value"] += 1
    flagged = compare.compare(doc, moved)
    assert any("write_amp" in line for line in flagged)
    assert any("device.writes" in line for line in flagged)
    faster = json.loads(out.read_text())
    faster["workloads"]["mail_fsync"]["end_to_end"]["host_ops_per_s"]["value"] *= 2
    assert compare.compare(doc, faster) == []
