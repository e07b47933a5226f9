"""CLI entry point for the checkers.

``python -m repro.check lint [paths] [--format json] [--graph-out P]``
runs the purity lint plus the whole-program analyses; ``arch``,
``costflow``, ``conc`` and ``durflow`` run each analysis alone (same
exit-code contract).  The command list comes from one table:
:data:`repro.check.lint.ANALYSES`, and the ``TOOL``/``ABOUT``/``GRAPH``
each analysis' report declares.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Type

from repro.check import flow, lint


def _kinds() -> Dict[str, Type[flow.Report]]:
    """Each analysis of :data:`lint.ANALYSES` -> the report it declares."""
    kinds = {kind.TOOL: kind for kind in flow.Report.__subclasses__()}
    return {name: kinds[name] for name in lint.ANALYSES}


def _usage() -> str:
    lines = [
        f"usage: python -m repro.check {{{','.join(['lint', *lint.ANALYSES])}}} [options]",
        f"  {'lint':<9} purity lint + {' + '.join(lint.ANALYSES)} "
        "(--format json, --graph-out P)",
    ]
    for name, kind in _kinds().items():
        graph = " (--graph-out P)" if kind.GRAPH is not None else ""
        lines.append(f"  {name:<9} {kind.ABOUT}{graph}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage(), file=sys.stderr)
        return 0 if argv else 2
    if argv[0] == "lint":
        return lint.main(argv[1:])
    kind = _kinds().get(argv[0])
    if kind is None:
        print(f"repro.check: unknown command {argv[0]!r}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 2
    return flow.run_cli(kind, lint.ANALYSES[argv[0]].analyze, argv[1:])


if __name__ == "__main__":
    sys.exit(main())
