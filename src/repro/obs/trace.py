"""Span-based event tracing on the *simulated* clock.

Spans record begin/end on :class:`~repro.device.clock.SimClock` time
with parent/child nesting (a per-tracer stack) and a charged-cost
breakdown — how much of the span's simulated duration was CPU charged
via ``clock.cpu`` versus waiting on device completions.  Device
occupancy (each I/O's slot on the device timeline) is recorded as
separate events on a dedicated trace thread.

Exports:

* Chrome ``trace_event`` JSON — load in ``chrome://tracing`` or
  https://ui.perfetto.dev (complete "X" events; nesting is inferred
  from ts/dur containment on each thread);
* a plain-text flamegraph-style summary aggregated by span stack path.

The default tracer everywhere is :data:`NULL_TRACER`, whose
``enabled`` flag is False: a scope that does not trace installs no span
wrapper (:meth:`repro.obs.MountScope.instrument`), and the device tests
that one flag before it records a timeline event, so tracing costs
nothing when disabled.  Spans read only the simulated clock; host time
per layer is perfbench's ``--trace 1`` ledger.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.device.clock import SimClock

#: Trace-thread ids: the caller's (CPU) timeline and the device timeline.
TID_CPU = 0
TID_DEVICE = 1


class Span:
    """One in-flight or finished span on the simulated timeline."""

    __slots__ = (
        "name", "cat", "start", "end", "cpu0", "io0",
        "cpu", "io_wait", "depth", "path", "args",
    )

    def __init__(
        self, name: str, cat: str, start: float, cpu0: float, io0: float,
        depth: int, path: str,
    ) -> None:
        self.name = name
        self.cat = cat
        self.start = start
        self.end = start
        self.cpu0 = cpu0
        self.io0 = io0
        self.cpu = 0.0
        self.io_wait = 0.0
        self.depth = depth
        self.path = path
        self.args: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The default: a tracer that is not enabled records nothing."""

    enabled = False


#: Shared no-op tracer instance (safe: it holds no state).
NULL_TRACER = NullTracer()


class _SpanCM:
    __slots__ = ("_tracer", "_span", "_args")

    def __init__(self, tracer: "SpanTracer", span: Span, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = span
        self._args = args

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer.end(self._span, **self._args)
        return False


class SpanTracer:
    """Records spans against one mount's simulated clock."""

    enabled = True

    def __init__(self, clock: SimClock, max_events: int = 1_000_000) -> None:
        self.clock = clock
        self.max_events = max_events
        self.spans: List[Span] = []
        self.dropped = 0
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str) -> Span:
        clock = self.clock
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path};{name}" if parent is not None else name
        span = Span(
            name, cat, clock.now, clock.cpu_time, clock.io_wait,
            depth=len(self._stack), path=path,
        )
        self._stack.append(span)
        return span

    def end(self, span: Span, **args: Any) -> None:
        clock = self.clock
        span.end = clock.now
        span.cpu = clock.cpu_time - span.cpu0
        span.io_wait = clock.io_wait - span.io0
        if args:
            span.args.update(args)
        # Unwind to (and past) this span; tolerates a caller ending a
        # parent while an unclosed child is on the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if len(self.spans) < self.max_events:
            self.spans.append(span)
        else:
            self.dropped += 1

    def span(self, name: str, cat: str, **args: Any) -> _SpanCM:
        return _SpanCM(self, self.begin(name, cat), args)

    def event(
        self, name: str, cat: str, ts: float, dur: float, tid: int = TID_DEVICE, **args: Any
    ) -> None:
        """Record a flat (stackless) event, e.g. device occupancy."""
        # Flat events bypass the stack; the "[cat]" path prefix marks
        # them and ``depth`` carries the trace thread id.
        span = Span(name, cat, ts, 0.0, 0.0, depth=tid, path=f"[{cat}];{name}")
        span.end = ts + dur
        if args:
            span.args.update(args)
        if len(self.spans) < self.max_events:
            self.spans.append(span)
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_events(self, pid: int = 0) -> List[Dict[str, Any]]:
        """This tracer's spans as Chrome ``trace_event`` dicts."""
        events: List[Dict[str, Any]] = []
        for span in self.spans:
            args = dict(span.args)
            tid = TID_CPU
            if span.path.startswith("["):
                tid = span.depth  # flat events carry their tid in depth
            else:
                args.setdefault("cpu_us", round(span.cpu * 1e6, 3))
                args.setdefault("io_wait_us", round(span.io_wait * 1e6, 3))
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": max(span.duration, 0.0) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        return events

    def flame_summary(self, top: Optional[int] = 40) -> str:
        """Flamegraph-style text: one line per stack path, aggregated.

        Self time is the span's duration minus the duration of its
        direct children (flat device events are excluded).
        """
        total: Dict[str, float] = {}
        child_time: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for span in self.spans:
            if span.path.startswith("["):
                continue
            total[span.path] = total.get(span.path, 0.0) + span.duration
            counts[span.path] = counts.get(span.path, 0) + 1
            if ";" in span.path:
                parent = span.path.rsplit(";", 1)[0]
                child_time[parent] = child_time.get(parent, 0.0) + span.duration
        lines = [f"{'calls':>8s} {'total(s)':>12s} {'self(s)':>12s}  stack"]
        order = sorted(total, key=lambda p: -total[p])
        if top is not None:
            order = order[:top]
        for path in order:
            self_time = total[path] - child_time.get(path, 0.0)
            lines.append(
                f"{counts[path]:>8d} {total[path]:>12.6f} {max(self_time, 0.0):>12.6f}  {path}"
            )
        if self.dropped:
            lines.append(f"(dropped {self.dropped} spans past max_events={self.max_events})")
        return "\n".join(lines)
