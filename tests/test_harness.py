"""Tests for the experiment harness (classification, rendering, CLI)."""

import dataclasses
import json
import os
import shlex

import pytest

from repro.harness.compleat import Classification, classify, column_best, is_compleat
from repro.harness.paperdata import COLUMNS, HIGHER_IS_BETTER, PAPER_TABLE3
from repro.harness.runner import (
    MICROBENCHES,
    TABLE1_SYSTEMS,
    TABLE3_SYSTEMS,
    make_mount,
    run_micro,
)
from repro.harness.tables import render_table, render_vs_paper
from repro.workloads.scale import SMOKE_SCALE

TINY = dataclasses.replace(
    SMOKE_SCALE,
    seq_bytes=2 << 20,
    rand_file_bytes=2 << 20,
    rand_ops=64,
    toku_files=200,
    tree_files=50,
    tree_bytes=1 << 20,
)


class TestCompleatMetric:
    def test_throughput_classification(self):
        assert classify(100, 100, True) is Classification.GREEN
        assert classify(86, 100, True) is Classification.GREEN
        assert classify(84, 100, True) is Classification.PLAIN
        assert classify(29, 100, True) is Classification.RED
        assert classify(31, 100, True) is Classification.PLAIN

    def test_latency_classification(self):
        assert classify(1.0, 1.0, False) is Classification.GREEN
        assert classify(1.14, 1.0, False) is Classification.GREEN
        assert classify(3.0, 1.0, False) is Classification.PLAIN
        assert classify(3.5, 1.0, False) is Classification.RED

    def test_none_is_plain(self):
        assert classify(None, 100, True) is Classification.PLAIN

    def test_column_best(self):
        col = {"a": 5.0, "b": 9.0, "c": None}
        assert column_best(col, True) == 9.0
        assert column_best(col, False) == 5.0

    def test_paper_table_shading_reproduced(self):
        """The paper's own numbers must classify as the paper shades
        them: every baseline has a red cell, v0.6 has none."""
        rows = PAPER_TABLE3
        systems = [s for s in rows if s != "BetrFS v0.6"]
        for baseline in ("ext4", "btrfs", "xfs", "f2fs", "zfs", "BetrFS v0.4"):
            assert not is_compleat(
                {s: rows[s] for s in systems}, baseline, HIGHER_IS_BETTER
            ), baseline
        assert is_compleat(
            {s: rows[s] for s in systems}, "+QRY", HIGHER_IS_BETTER
        )


class TestRendering:
    def test_render_contains_all_systems_and_columns(self):
        text = render_vs_paper(PAPER_TABLE3, TABLE3_SYSTEMS, "t")
        for system in TABLE3_SYSTEMS:
            assert system in text
        for header in ("SeqRd", "Toku", "grep"):
            assert header in text

    def test_render_marks(self):
        text = render_table(PAPER_TABLE3, TABLE3_SYSTEMS, "t")
        assert "!" in text  # red cells exist
        assert "+" in text  # green cells exist


class TestRunner:
    def test_make_mount_dispatch(self):
        assert make_mount("ext4", TINY).name == "ext4"
        assert make_mount("BetrFS v0.6", TINY).name == "BetrFS v0.6"
        with pytest.raises(KeyError):
            make_mount("reiserfs", TINY)

    def test_all_table_systems_mountable(self):
        for system in set(TABLE1_SYSTEMS + TABLE3_SYSTEMS):
            make_mount(system, TINY)

    def test_run_micro_subset(self):
        out = run_micro("ext4", TINY, only=["seq"])
        assert set(out) == {"seq_read", "seq_write"}
        assert all(v > 0 for v in out.values())

    def test_microbench_registry_covers_all_columns(self):
        produced = set()
        for bench in MICROBENCHES:
            if bench == "seq":
                produced |= {"seq_read", "seq_write"}
            else:
                produced.add(bench)
        assert produced == set(COLUMNS)


class TestCLI:
    def test_cli_table1_smoke(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        rc = main(
            [
                "table1",
                "--scale",
                "smoke",
                "--systems",
                "ext4",
                "--quiet",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ext4" in out
        data = json.loads((tmp_path / "results.json").read_text())
        assert "ext4" in data["tables"]

    def test_all_check_names_each_cell_that_moved(self, tmp_path, monkeypatch, capsys):
        """``all --check`` regenerates into a temporary directory and
        byte-diffs with the committed pair: exit 0 when identical, else
        exit 1 with every differing results.json cell and EXPERIMENTS.md
        line on stderr."""
        import repro.harness.__main__ as cli

        small = ["all", "--scale", "smoke", "--systems", "ext4", "--figures", "fig2a", "--quiet"]
        committed = tmp_path / "results"
        assert cli.main(small + ["--out", str(committed)]) == 0
        monkeypatch.setattr(cli, "RESULTS_DIR", str(committed))
        capsys.readouterr()
        assert cli.main(small + ["--check"]) == 0
        assert "match the committed results/ byte for byte" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results"]

        data = json.loads((committed / "results.json").read_text())
        grep = data["tables"]["ext4"]["grep"]
        data["tables"]["ext4"]["grep"] = grep * 2
        (committed / "results.json").write_text(json.dumps(data, indent=2))
        md = (committed / "EXPERIMENTS.md").read_text()
        (committed / "EXPERIMENTS.md").write_text(md.replace("ext4", "ext3", 1))
        assert cli.main(small + ["--check"]) == 1
        err = capsys.readouterr().err.splitlines()
        mismatches = [line for line in err if line.startswith("RESULTS MISMATCH: ")]
        assert mismatches[0] == (
            f"RESULTS MISMATCH: results.json/tables/ext4/grep: {grep * 2!r} -> {grep!r} (-50.00%)"
        )
        assert len(mismatches) == 3  # the cell, and the line out and in
        assert mismatches[1].startswith("RESULTS MISMATCH: EXPERIMENTS.md: -")
        assert mismatches[2].startswith("RESULTS MISMATCH: EXPERIMENTS.md: +")
        assert "3 difference(s)" in err[-2]


#: Every documented ``python -m repro.harness`` command line (README.md,
#: DESIGN.md, the CI workflow; placeholders such as ``<image>`` or ``N``
#: filled in), with the values it must parse to.
DOC_COMMAND_LINES = [
    ("table1", {}),
    ("table3", {}),
    ("fig2", {}),
    ("hdd", {}),
    ("hdd --scale smoke --quiet", {"scale": "smoke", "quiet": True}),
    ("all --out results/", {"out": "results/", "scale": "default", "metrics_out": None}),
    ("all --scale default --out DIR", {"out": "DIR", "trace_out": None}),
    ("ftl", {"systems": None}),
    ("ftl --scale smoke --quiet", {"scale": "smoke", "quiet": True}),
    ("fsck", {"image": None, "quiet": False}),
    ("fsck --quiet", {"image": None, "quiet": True}),
    ("fsck crash.img", {"image": "crash.img"}),
    ("stats", {"scale": "default", "figures": None}),
    ('stats --scale smoke --systems "BetrFS v0.6"', {"systems": ["BetrFS v0.6"]}),
    (
        'stats --scale smoke --systems "BetrFS v0.6" --quiet '
        "--metrics-out metrics.json --trace-out trace.json",
        {"metrics_out": "metrics.json", "trace_out": "trace.json", "quiet": True},
    ),
    (
        'stats --scale smoke --systems "BetrFS v0.6" ext4 --quiet '
        "--metrics-out m.json --trace-out t.json",
        {"systems": ["BetrFS v0.6", "ext4"], "metrics_out": "m.json"},
    ),
    ("fig2 --figures fig2a", {"figures": ["fig2a"]}),
    ("fig2 --figures fig2c fig2d", {"figures": ["fig2c", "fig2d"]}),
    ("fig2 --figures fig2a --scale smoke --quiet", {"figures": ["fig2a"], "scale": "smoke"}),
    (
        "fig2 --figures fig2a --metrics-out metrics.json --trace-out trace.json",
        {"metrics_out": "metrics.json", "trace_out": "trace.json"},
    ),
    ("mt", {"scale": "default", "seed": 0, "sessions": 8, "shards": 0}),
    (
        "mt --scale smoke --sessions 8 --verify-lock-graph",
        {"sessions": 8, "verify_lock_graph": True, "policy": "fifo"},
    ),
    ("mt --scale smoke --sessions 8 --seed 7", {"seed": 7, "workload": "mailserver_mt"}),
    ("mt --scale smoke --sessions 8 --seed 7 --shards 4", {"shards": 4}),
    ("mt --scale smoke --sessions 8 --seed 7 --shards 8", {"shards": 8}),
    (
        "mt --scale smoke --sessions 8 --seed 7 --workload webserver_mt --shards 8",
        {"workload": "webserver_mt", "shards": 8},
    ),
    (
        "mt --scale smoke --sessions 8 --seed 7 --verify-lock-graph",
        {"seed": 7, "verify_lock_graph": True},
    ),
    ("mt --scale smoke --sessions 8 --seed 7 --quiet", {"quiet": True, "verify_lock_graph": False}),
    (
        "mt --scale smoke --sessions 8 --seed 7 --shards 8 --verify-lock-graph",
        {"shards": 8, "verify_lock_graph": True},
    ),
    ("mt --scale smoke --sessions 8 --seed 7 --shards 8 --quiet", {"shards": 8, "quiet": True}),
    ("torture --seed 0 --budget 200", {"seed": 0, "budget": 200, "torture_out": None}),
    (
        "torture --seed 0 --budget 200 --verify-order-graph",
        {"verify_order_graph": True},
    ),
    (
        "torture --seed 7 --budget 500 --torture-out repro.json",
        {"seed": 7, "budget": 500, "torture_out": "repro.json"},
    ),
    (
        "torture --seed 0 --budget 3000 --torture-out crashmc-repro.json --verify-order-graph",
        {"torture_out": "crashmc-repro.json", "verify_order_graph": True, "budget": 3000},
    ),
    (
        "torture --seed 0 --budget 3000 --torture-out crashmc-repro.json",
        {"torture_out": "crashmc-repro.json", "verify_order_graph": False},
    ),
    ("all --scale default --check --quiet", {"check": True, "out": None, "quiet": True}),
    ("all --check", {"check": True, "scale": "default"}),
]


class TestSubcommands:
    """Each target accepts exactly the options it reads."""

    @pytest.mark.parametrize("line, expected", DOC_COMMAND_LINES)
    def test_documented_command_line_parses(self, line, expected):
        from repro.harness.__main__ import TARGETS, parse_args

        args = parse_args(shlex.split(line))
        target = line.split()[0]
        assert args.target == target
        assert args.run is TARGETS[target][2]
        for key, value in expected.items():
            assert getattr(args, key) == value, key

    @pytest.mark.parametrize(
        "target",
        [None, "table1", "table3", "fig2", "hdd", "all", "stats", "ftl",
         "fsck", "torture", "mt"],
    )
    def test_help_exits_zero(self, target, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main([target, "--help"] if target else ["--help"])
        assert exc.value.code == 0
        assert "usage: python -m repro.harness" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "line",
        [
            "mt --trace-out t.json",
            "table3 --sessions 4",
            "torture --scale smoke",
            "fsck --systems ext4",
            "fig2 --check",
        ],
    )
    def test_flag_the_target_does_not_read_exits_2(self, line, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(line.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "mt --sessions 0",
            "mt --shards -3",
            "mt --ops-per-session -5",
            "torture --budget -5",
            "torture --budget 0",
        ],
    )
    def test_count_it_cannot_run_exits_2(self, line, capsys):
        """A count out of range fails at parse time: no traceback, no
        silent fallback, no vacuous pass."""
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(line.split())
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
