"""Table 3: per-optimization BetrFS rows (+SFL ... +QRY).

Covers the cumulative-optimization rows that are not already part of
Table 1; together with benchmarks/test_table1.py this regenerates the
full Table 3 grid.  Shape assertions encode the paper's headline
per-optimization effects.
"""

import pytest

from benchmarks.conftest import run_cell
from repro.harness.runner import (
    micro_rand_4b,
    micro_rand_4k,
    micro_rm,
    micro_seq,
    micro_tokubench,
)

OPT_ROWS = ["+SFL", "+RG", "+MLC", "+PGSH", "+DC", "+CL", "+QRY"]


@pytest.mark.parametrize("system", OPT_ROWS)
def test_table3_seq(benchmark, bench_scale, system):
    values = run_cell(benchmark, micro_seq, system, bench_scale)
    assert values["seq_read"] > 0 and values["seq_write"] > 0


@pytest.mark.parametrize("system", OPT_ROWS)
def test_table3_random_writes(benchmark, bench_scale, system):
    values = run_cell(benchmark, micro_rand_4k, system, bench_scale)
    assert values["rand_4k"] > 0


@pytest.mark.parametrize("system", ["+MLC", "+QRY"])
def test_table3_random_4b(benchmark, bench_scale, system):
    values = run_cell(benchmark, micro_rand_4b, system, bench_scale)
    assert values["rand_4b"] > 0


@pytest.mark.parametrize("system", ["+SFL", "+CL"])
def test_table3_tokubench(benchmark, bench_scale, system):
    values = run_cell(benchmark, micro_tokubench, system, bench_scale)
    assert values["tokubench"] > 0


@pytest.mark.parametrize("system", ["BetrFS v0.4", "+RG", "+QRY"])
def test_table3_rm(benchmark, bench_scale, system):
    values = run_cell(benchmark, micro_rm, system, bench_scale)
    assert values["rm"] > 0


def test_shape_sfl_speeds_sequential_io(bench_scale):
    """§3: consolidating layers lifts sequential I/O far above v0.4."""
    v04 = micro_seq("BetrFS v0.4", bench_scale)
    sfl = micro_seq("+SFL", bench_scale)
    assert sfl["seq_write"] > v04["seq_write"] * 1.5
    assert sfl["seq_read"] > v04["seq_read"] * 1.2


@pytest.mark.xfail(
    strict=True,
    reason="at smoke scale +RG's rm is 0.0204 s against +SFL's 0.0252 s: "
    "faster, not the 2x asserted (ROADMAP 2(b))",
)
def test_shape_rg_speeds_recursive_delete(bench_scale):
    """§4: range coalescing takes an order-of-magnitude-class bite out
    of recursive deletion."""
    sfl = micro_rm("+SFL", bench_scale)
    rg = micro_rm("+RG", bench_scale)
    assert rg["rm"] < sfl["rm"] / 2


@pytest.mark.xfail(
    strict=True,
    reason="at smoke scale +CL's TokuBench is 21.73 Kop/s against +PGSH's "
    "21.80: level, not the 1.5x asserted (ROADMAP 2(b))",
)
def test_shape_cl_speeds_small_file_creation(bench_scale):
    """§3.3: conditional logging restores TokuBench batching."""
    pgsh = micro_tokubench("+PGSH", bench_scale)
    cl = micro_tokubench("+CL", bench_scale)
    assert cl["tokubench"] > pgsh["tokubench"] * 1.5
