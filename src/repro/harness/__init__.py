"""Experiment harness: regenerates every table and figure of the paper.

* ``python -m repro.harness table1`` — Table 1 (file-system comparison)
* ``python -m repro.harness table3`` — Table 3 (per-optimization rows)
* ``python -m repro.harness fig2``   — Figures 2a-2h (applications)
* ``python -m repro.harness all``    — table3 + fig2, and with ``--out``
  ``results.json`` + ``EXPERIMENTS.md`` (``--out results/``)

plus ``hdd``, ``ftl``, ``stats``, ``fsck``, ``torture``, ``bench`` and
``mt``.  Each target accepts only the options its row of
``repro.harness.__main__.TARGETS`` names (``<target> --help``).
"""

from repro.harness.runner import make_mount, run_microbenches, run_micro
from repro.harness.paperdata import PAPER_TABLE3, PAPER_FIG2
from repro.harness.compleat import classify, Classification

__all__ = [
    "make_mount",
    "run_microbenches",
    "run_micro",
    "PAPER_TABLE3",
    "PAPER_FIG2",
    "classify",
    "Classification",
]
