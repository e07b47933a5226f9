"""EXPERIMENTS.md generation: paper vs measured, for every artifact."""

from __future__ import annotations

import difflib
import json
import os
from typing import Any, Dict, List, Optional

from repro.harness.compleat import Classification, classify, column_best, is_compleat
from repro.harness.paperdata import COLUMNS, HIGHER_IS_BETTER, PAPER_FIG2, PAPER_TABLE3
from repro.harness.tables import render_table, render_vs_paper

_FIG_TITLES = {
    "fig2a": "Figure 2a — tar/untar latency (s, lower is better)",
    "fig2b": "Figure 2b — git clone/diff latency (s, lower is better)",
    "fig2c": "Figure 2c — rsync bandwidth (MB/s, higher is better)",
    "fig2d": "Figure 2d — Dovecot mailserver throughput (op/s)",
    "fig2e": "Figure 2e — Filebench OLTP (op/s)",
    "fig2f": "Figure 2f — Filebench Fileserver (op/s)",
    "fig2g": "Figure 2g — Filebench Webserver (op/s)",
    "fig2h": "Figure 2h — Filebench Webproxy (op/s)",
}

_PAPER_FIG_KEYS = {
    "fig2a": [("tar", "fig2a_tar"), ("untar", "fig2a_untar")],
    "fig2b": [("clone", "fig2b_clone"), ("diff", "fig2b_diff")],
    "fig2c": [("rsync", "fig2c_rsync"), ("rsync_in_place", "fig2c_rsync_in_place")],
    "fig2d": [("mailserver", "fig2d_mailserver")],
    "fig2e": [("oltp", "fig2e_oltp")],
    "fig2f": [("fileserver", "fig2f_fileserver")],
    "fig2g": [("webserver", "fig2g_webserver")],
    "fig2h": [("webproxy", "fig2h_webproxy")],
}


def write_results_json(path: str, tables: Dict, figures: Dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"tables": tables, "figures": figures}, fh, indent=2)


#: What ``harness all --out DIR`` writes (and ``results/`` commits).
RESULT_FILES = ("results.json", "EXPERIMENTS.md")


def results_differences(committed: str, fresh: str) -> List[str]:
    """How the :data:`RESULT_FILES` under directory ``fresh`` differ
    from those under ``committed``: one line per changed
    ``results.json`` cell and per changed ``EXPERIMENTS.md`` line
    (empty = byte-identical)."""
    lines: List[str] = []
    for name in RESULT_FILES:
        old, new = (_read_text(os.path.join(d, name)) for d in (committed, fresh))
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{name}: {'not committed' if old is None else 'not written'}")
        elif name.endswith(".json"):
            cells = _cell_changes(json.loads(old), json.loads(new), name)
            lines += cells or [f"{name}: same cells, different bytes"]
        else:
            diff = difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0)
            lines += [
                f"{name}: {line}"
                for line in diff
                if not line.startswith(("---", "+++", "@@"))
            ]
    return lines


def _read_text(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _cell_changes(old: Any, new: Any, path: str) -> List[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            line
            for key in sorted(set(old) | set(new))
            for line in _cell_changes(old.get(key), new.get(key), f"{path}/{key}")
        ]
    if old == new:
        return []
    moved = ""
    if isinstance(old, (int, float)) and isinstance(new, (int, float)) and old:
        moved = f" ({(new - old) / old:+.2%})"
    return [f"{path}: {old!r} -> {new!r}{moved}"]


def render_experiments_md(
    table3: Dict[str, Dict[str, float]],
    figures: Dict,
    scale_name: str,
) -> str:
    """The EXPERIMENTS.md body."""
    out = []
    out.append("# EXPERIMENTS — paper vs. measured")
    out.append("")
    out.append(
        "All measurements come from the discrete-event simulation "
        f"(scale `{scale_name}`, see `repro/workloads/scale.py`).  "
        "Workloads are scaled down ~2500x in bytes and ~30x in file "
        "counts with cache ratios preserved, so **latency columns "
        "compare to paper values divided by ~30** and throughput "
        "columns compare directly.  Shapes (who wins, rough factors, "
        "red/green cells) are the reproduction target, not absolute "
        "numbers — see DESIGN.md."
    )
    out.append("")
    out.append("## Table 1 / Table 3 — microbenchmarks")
    out.append("")
    out.append("```")
    out.append(
        render_vs_paper(
            table3, list(table3), "measured (paper)  —  throughput MB/s & Kop/s, latency s"
        )
    )
    out.append("```")
    out.append("")
    compleat = [
        s
        for s in table3
        if is_compleat(table3, s, HIGHER_IS_BETTER)
    ]
    out.append(
        f"Systems with **no red cell** (compleat by the paper's "
        f"definition): {', '.join(compleat) or 'none'}."
    )
    out.append("")
    out.append("## Figure 2 — application benchmarks")
    out.append("")
    for fig, rows in figures.items():
        out.append(f"### {_FIG_TITLES.get(fig, fig)}")
        out.append("")
        pairs = _PAPER_FIG_KEYS.get(fig, [])
        header = "| System | " + " | ".join(
            f"{m} measured | {m} paper" for m, _ in pairs
        ) + " |"
        out.append(header)
        out.append("|---" * (1 + 2 * len(pairs)) + "|")
        for system, vals in rows.items():
            cells = []
            for metric, paper_key in pairs:
                v = vals.get(metric)
                ref = PAPER_FIG2.get(paper_key, {}).get(system)
                cells.append("crash" if v is None else f"{v:.2f}")
                cells.append("crash" if ref is None else f"{ref}")
            out.append(f"| {system} | " + " | ".join(cells) + " |")
        out.append("")
    return "\n".join(out)
