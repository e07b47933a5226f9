"""Simulation-wide observability: metrics, tracing, reporting.

Three pieces (see DESIGN.md, "Observability"):

* :mod:`repro.obs.metrics` — a per-mount :class:`MetricsRegistry` of
  counters, gauges, and histograms that the existing ad-hoc stats
  objects register into without losing their current APIs;
* :mod:`repro.obs.trace` — a span tracer keyed to the simulated clock
  with Chrome ``trace_event`` and flamegraph-summary export;
* :mod:`repro.obs.report` — the per-layer stats table.

Wiring model
------------

Every mount owns one :class:`MountScope` (registry + tracer + clock).
By default a mount creates a standalone scope with tracing *disabled*
(the :data:`~repro.obs.trace.NULL_TRACER`), so observability costs
nothing unless asked for.  Each instrumented class names the methods
it wants spanned in a ``SPANS`` table, and :meth:`MountScope.instrument`
installs the wrappers on the instance: spans only when the scope
traces, latency histograms whenever the class passes one.  Spans are
on the simulated clock only; host time per layer is perfbench's
``--trace 1`` ledger.  The harness enables collection across many
mounts by installing an :class:`Observability` session::

    obs = Observability(tracing=True)
    with session(obs):
        run_figures(...)          # every mount registers itself
    obs.write_trace("trace.json")   # chrome://tracing / Perfetto
    obs.write_metrics("metrics.json")

A session outlives the mounts it observes, but it does not keep them
alive: when a mount is garbage-collected its scope's registry freezes
(:meth:`MetricsRegistry.freeze`), keeping only what
:meth:`MountScope.collect` reads, so the mount's device store, node cache and page cache die with
it and the exported metrics are the same bytes.
"""

from __future__ import annotations

import json
import os
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.device.clock import SimClock
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import Stopwatch, wall_ns
from repro.obs.report import render_scope
from repro.obs.trace import NULL_TRACER, NullTracer, SpanTracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MountScope", "Observability", "current", "session",
    "NullTracer", "SpanTracer", "NULL_TRACER",
    "Stopwatch", "wall_ns",
]

#: One ``SPANS`` table entry: span name, category (the stats layer),
#: and a function of ``(instance, *call args)`` giving the span's args
#: from the call (``None``: no args).  The args are read before the
#: call and attached when the span ends.
SpanSpec = Tuple[str, str, Optional[Callable[..., Dict[str, Any]]]]


class MountScope:
    """Observability context for one mounted file system."""

    def __init__(
        self, name: str, clock: SimClock, tracing: bool = False, pid: int = 0
    ) -> None:
        self.name = name
        self.clock = clock
        self.pid = pid
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(clock) if tracing else NULL_TRACER

    def instrument(
        self,
        obj: Any,
        spans: Mapping[str, SpanSpec],
        latency: Optional[Mapping[str, Histogram]] = None,
    ) -> None:
        """Wrap ``obj``'s methods on the instance, never the class: each
        method of ``spans`` in a span when this scope traces, each method
        of ``latency`` in its histogram (simulated seconds per call, not
        observed when the call raises).  A method this scope neither
        traces nor times stays the class's, at no cost."""
        latency = latency or {}
        traced = spans if self.tracer.enabled else {}
        for method in dict.fromkeys([*traced, *latency]):
            wrapper = _wrap(
                obj, getattr(obj, method), self.clock, self.tracer,
                traced.get(method), latency.get(method),
            )
            setattr(obj, method, wrapper)

    # Convenience passthroughs used by instrumented components.
    def latency(self, name: str, layer: str = "", **labels: str) -> Histogram:
        return self.registry.latency(name, layer=layer, **labels)

    def register_object(self, name: str, obj: Any, layer: str = "") -> None:
        self.registry.register_object(name, obj, layer=layer)

    def collect(self) -> Dict[str, Any]:
        out = self.registry.collect()
        out["mount"] = self.name
        out["simulated_seconds"] = self.clock.now
        out["cpu_seconds"] = self.clock.cpu_time
        out["io_wait_seconds"] = self.clock.io_wait
        return out

    def render_stats(self) -> str:
        return render_scope(self)


def _wrap(obj, inner, clock, tracer, spec, hist):
    """``inner`` (a bound method of ``obj``) in a span if ``spec`` is
    given, and timed into ``hist`` if that is given."""
    if spec is None:

        def timed(*a, **kw):
            t0 = clock.now
            out = inner(*a, **kw)
            hist.observe(clock.now - t0)
            return out

        return timed
    name, cat, args = spec

    def traced(*a, **kw):
        t0 = clock.now
        with tracer.span(name, cat, **(args(obj, *a, **kw) if args else {})):
            out = inner(*a, **kw)
        if hist is not None:
            hist.observe(clock.now - t0)
        return out

    return traced


class Observability:
    """A collection session: one scope per mount created under it."""

    def __init__(self, tracing: bool = False) -> None:
        self.tracing = tracing
        self.scopes: List[MountScope] = []

    def mount(self, name: str, clock: SimClock, owner: object) -> MountScope:
        """A new scope for ``owner``; it freezes when ``owner`` dies."""
        scope = MountScope(name, clock, tracing=self.tracing, pid=len(self.scopes))
        self.scopes.append(scope)
        weakref.finalize(owner, scope.registry.freeze)
        return scope

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        return {"mounts": [scope.collect() for scope in self.scopes]}

    def chrome_trace(self) -> Dict[str, Any]:
        """All mounts merged into one Chrome trace_event document.

        Each mount is a trace "process" (pid) with two threads: the
        CPU/caller timeline and the device timeline.
        """
        events: List[Dict[str, Any]] = []
        for scope in self.scopes:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": scope.pid,
                    "tid": 0,
                    "args": {"name": f"{scope.name} #{scope.pid}"},
                }
            )
            for tid, tname in ((0, "cpu"), (1, "device")):
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": scope.pid,
                        "tid": tid,
                        "args": {"name": tname},
                    }
                )
            tracer = scope.tracer
            if isinstance(tracer, SpanTracer):
                events.extend(tracer.chrome_events(pid=scope.pid))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def flame_summary(self) -> str:
        parts = []
        for scope in self.scopes:
            if isinstance(scope.tracer, SpanTracer):
                parts.append(f"--- {scope.name} #{scope.pid} ---")
                parts.append(scope.tracer.flame_summary())
        return "\n".join(parts)

    def render_stats(self) -> str:
        return "\n\n".join(scope.render_stats() for scope in self.scopes)

    def write_metrics(self, path: str) -> None:
        _ensure_parent(path)
        with open(path, "w") as fh:
            json.dump(self.metrics(), fh, indent=1)

    def write_trace(self, path: str) -> None:
        _ensure_parent(path)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


# ----------------------------------------------------------------------
# The installed session (None = every mount gets a standalone scope)
# ----------------------------------------------------------------------
_current: Optional[Observability] = None


def current() -> Optional[Observability]:
    """The installed observability session, if any."""
    return _current


@contextmanager
def session(obs: Optional[Observability]):
    """Install ``obs`` so every mount created inside registers with it
    (``None``: mounts created inside stay standalone, whatever session
    is installed outside)."""
    global _current
    previous = _current
    _current = obs
    try:
        yield obs
    finally:
        _current = previous


def scope_for_mount(name: str, clock: SimClock, owner: object) -> MountScope:
    """The scope a new mount ``owner`` should use: the session's (which
    lets go of ``owner``'s objects when it dies), or standalone."""
    if _current is not None:
        return _current.mount(name, clock, owner)
    return MountScope(name, clock, tracing=False)
