"""Inline waiver comments for the whole-program analyses.

A finding from :mod:`repro.check.arch`, :mod:`repro.check.costflow`,
:mod:`repro.check.conc` or :mod:`repro.check.durflow` can be suppressed — *one finding, one line, one reason* — with an
inline comment on the flagged line::

    from repro.check.sanitize import SanitizerSuite  # arch: allow[lazy import breaks the core<->check cycle]
    store.write(off, blob)  # costflow: allow[preconditioning moves no simulated-time bytes]

The reason string inside the brackets is mandatory: a waiver without a
justification is itself an error, and so is a waiver that no finding
ever consumed (``unused-waiver``) — dead waivers would otherwise
silently disable future findings on that line.  Used waivers are not
silent either: analyses report them (as non-fatal notes) so the
exception list stays visible in every run.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: ``# <tool>: allow[reason]`` — tool is ``arch``, ``costflow``,
#: ``conc`` or ``durflow``.
_WAIVER_RE = re.compile(
    r"#\s*(arch|costflow|conc|durflow):\s*allow\[([^\]]*)\]"
)


@dataclass
class Waiver:
    """One inline ``# tool: allow[reason]`` comment."""

    path: str
    line: int
    tool: str
    reason: str
    used: bool = False

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.tool}: allow[{self.reason}]"


@dataclass
class WaiverSet:
    """All waivers of one tool in one analyzed tree, keyed by line."""

    tool: str
    by_location: Dict[str, Dict[int, Waiver]] = field(default_factory=dict)

    def add(self, waiver: Waiver) -> None:
        self.by_location.setdefault(waiver.path, {})[waiver.line] = waiver

    def consume(self, path: str, line: int) -> Optional[Waiver]:
        """Mark the waiver covering ``path:line`` used, if one exists."""
        waiver = self.by_location.get(path, {}).get(line)
        if waiver is not None:
            waiver.used = True
        return waiver

    def all(self) -> List[Waiver]:
        return [
            w
            for _, per_line in sorted(self.by_location.items())
            for _, w in sorted(per_line.items())
        ]

    def used(self) -> List[Waiver]:
        return [w for w in self.all() if w.used]

    def unused(self) -> List[Waiver]:
        return [w for w in self.all() if not w.used]


def scan_waivers(path: str, source: bytes, tool: str, into: WaiverSet) -> None:
    """Collect every ``# tool: allow[...]`` comment of ``source``.

    Tokenized, not line-scanned: the marker text may legitimately appear
    inside docstrings and message strings (this package documents its
    own waiver syntax), and only a real comment grants a waiver.
    """
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        for match in _WAIVER_RE.finditer(tok.string):
            if match.group(1) != tool:
                continue
            into.add(Waiver(path, tok.start[0], tool, match.group(2)))
