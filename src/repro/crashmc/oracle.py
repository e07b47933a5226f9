"""Logical crash oracle: what a recovered store is *allowed* to say.

The KV environment promises (PAPER.md, crash consistency):

* everything acknowledged by a durability op (``sync`` / ``checkpoint``)
  before the crash must read back exactly;
* unacknowledged ops may be lost, but only as an **atomic prefix**: the
  recovered state must equal the synced model plus the first *i*
  pending ops, for some *i* — never a subset with holes, never partial
  application of one op.

The oracle replays the workload's logical ops alongside the real
stack.  :meth:`Oracle.begin` applies an op's *mutation* to the pending
model; :meth:`Oracle.commit` promotes durability once the op returned.
The split matters: exploring a barrier epoch sealed *inside* a sync
must judge against the pre-promotion model, or every mid-sync crash
would be a false "lost synced data" alarm.

Implicit durability (background WAL flushes, log-full checkpoints) is
covered for free: those only ever make a *longer* prefix durable, and
any prefix is an accepted answer.

A sharded stack keeps every volume's trees on the device's one log, so
the same prefix rule holds there; a cross-shard ``xrename`` is one log
record, so its whole effect appears or none of it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.messages import value_bytes

#: Logical op kinds the oracle understands.  ``wflush`` pushes the WAL
#: buffer to the device without a barrier (creates unflushed device
#: writes at an op boundary) and has no logical effect.
#: ``xrename`` moves ``key`` to ``end`` across shard volumes in one log
#: record (repro.shard); its mutation is atomic.
KINDS = (
    "insert", "delete", "range_delete", "patch", "sync", "checkpoint",
    "wflush", "xrename",
)


#: Op kinds with no mutation and no position in the log.
_UNGATED = ("sync", "checkpoint", "wflush")


@dataclass(frozen=True)
class Op:
    """One logical workload operation."""

    kind: str
    tree: int = 0
    key: bytes = b""
    value: Any = None
    end: bytes = b""  # range_delete exclusive upper bound
    offset: int = 0  # patch byte offset

    def describe(self) -> str:
        if self.kind in _UNGATED:
            return self.kind
        if self.kind == "range_delete":
            return f"range_delete(t{self.tree}, {self.key!r}..{self.end!r})"
        if self.kind == "xrename":
            return f"xrename(t{self.tree}, {self.key!r} -> {self.end!r})"
        if self.kind == "patch":
            return f"patch(t{self.tree}, {self.key!r}, @{self.offset})"
        return f"{self.kind}(t{self.tree}, {self.key!r})"


def _apply(model: Dict[Tuple[int, bytes], bytes], op: Op) -> None:
    """Mirror one op's semantics onto a flat (tree, key) -> bytes map.

    ``patch`` mirrors :meth:`repro.core.messages.Patch.apply_to`:
    zero-extend the base value to cover the patched span, then replace
    the slice; a patch of a missing key materializes it.
    """
    slot = (op.tree, op.key)
    if op.kind == "insert":
        model[slot] = value_bytes(op.value)
    elif op.kind == "delete":
        model.pop(slot, None)
    elif op.kind == "range_delete":
        doomed = [
            s
            for s in model
            if s[0] == op.tree and op.key <= s[1] < op.end
        ]
        for s in doomed:
            del model[s]
    elif op.kind == "patch":
        data = value_bytes(op.value)
        base = model.get(slot, b"")
        need = op.offset + len(data)
        if len(base) < need:
            base = base + b"\x00" * (need - len(base))
        model[slot] = base[: op.offset] + data + base[op.offset + len(data):]
    elif op.kind == "xrename":
        # Atomic cross-shard move: either both halves or neither.
        value = model.pop(slot, None)
        if value is not None:
            model[(op.tree, op.end)] = value
    # sync / checkpoint / wflush: no mutation.


@dataclass
class Verdict:
    ok: bool
    detail: str = ""


@dataclass
class Oracle:
    """Tracks the synced model and the pending (unacknowledged) ops."""

    #: Durable logical state: every op acknowledged by a sync/checkpoint.
    synced: Dict[Tuple[int, bytes], bytes] = field(default_factory=dict)
    #: Ops begun but not yet covered by a durability acknowledgement.
    pending: List[Op] = field(default_factory=list)
    #: Every (tree, key) any op ever touched — the probe set.
    touched: Dict[Tuple[int, bytes], None] = field(default_factory=dict)

    def begin(self, op: Op) -> None:
        """The op's mutation is now in flight (call before executing)."""
        if op.kind in ("insert", "delete", "patch"):
            self.touched.setdefault((op.tree, op.key), None)
        elif op.kind == "xrename":
            self.touched.setdefault((op.tree, op.key), None)
            self.touched.setdefault((op.tree, op.end), None)
        elif op.kind == "range_delete":
            for slot in list(self.current()):
                if slot[0] == op.tree and op.key <= slot[1] < op.end:
                    self.touched.setdefault(slot, None)
        self.pending.append(op)

    def commit(self, op: Op) -> None:
        """The op returned.  A durability op acknowledges everything
        begun before it (itself included)."""
        if op.kind in ("sync", "checkpoint"):
            for pend in self.pending:
                _apply(self.synced, pend)
            self.pending = []

    def current(self) -> Dict[Tuple[int, bytes], bytes]:
        """The fully-applied model (synced + all pending mutations)."""
        model = dict(self.synced)
        for op in self.pending:
            _apply(model, op)
        return model

    # ------------------------------------------------------------------
    def models(self) -> List[Dict[Tuple[int, bytes], bytes]]:
        """Every acceptable recovered state: the synced model plus the
        first *k* pending mutations, for each *k*."""
        mutations = [op for op in self.pending if op.kind not in _UNGATED]
        model = dict(self.synced)
        out = [dict(model)]
        for op in mutations:
            _apply(model, op)
            out.append(dict(model))
        return out

    def check(
        self, get: Callable[[int, bytes], Any]
    ) -> Verdict:
        """Probe every touched key through ``get`` and demand the
        recovered state match *some* pending prefix on all of them."""
        recovered: Dict[Tuple[int, bytes], Optional[bytes]] = {}
        for tree, key in self.touched:
            value = get(tree, key)
            recovered[(tree, key)] = None if value is None else value_bytes(value)

        mismatches: List[str] = []
        for i, model in enumerate(self.models()):
            bad = None
            for slot, got in recovered.items():
                want = model.get(slot)
                if got != want:
                    bad = (slot, want, got)
                    break
            if bad is None:
                return Verdict(True, f"matches prefix {i}/{len(self.pending)}")
            slot, want, got = bad
            mismatches.append(
                f"prefix {i}: t{slot[0]}/{slot[1]!r} "
                f"expected {_clip(want)} got {_clip(got)}"
            )
        return Verdict(
            False,
            "recovered state matches no pending prefix; "
            + "; ".join(mismatches[:4]),
        )


def _clip(value: Optional[bytes], limit: int = 24) -> str:
    if value is None:
        return "None"
    if len(value) <= limit:
        return repr(value)
    return f"{value[:limit]!r}..({len(value)}B)"
