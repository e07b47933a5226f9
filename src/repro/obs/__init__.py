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
(the :data:`~repro.obs.trace.NULL_TRACER` no-op), so observability
costs nothing unless asked for.  The harness enables collection across
many mounts by installing an :class:`Observability` session::

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
from typing import Any, Dict, List, Optional

from repro.device.clock import SimClock
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import Stopwatch, WallProfiler, wall_ns, wall_s
from repro.obs.report import render_overhead, render_scope
from repro.obs.trace import NULL_TRACER, NullTracer, SpanTracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MountScope", "Observability", "current", "session",
    "NullTracer", "SpanTracer", "NULL_TRACER",
    "Stopwatch", "WallProfiler", "wall_ns", "wall_s",
]


class MountScope:
    """Observability context for one mounted file system.

    ``wall=True`` (implies tracing) makes the span tracer dual-clock:
    every span also records elapsed wall nanoseconds via
    :func:`repro.obs.prof.wall_ns`, enabling the per-layer sim-vs-wall
    overhead map.  Wall stamps are observation-only — simulated state
    and timing are bit-identical either way.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        tracing: bool = False,
        pid: int = 0,
        wall: bool = False,
    ) -> None:
        self.name = name
        self.clock = clock
        self.pid = pid
        self.registry = MetricsRegistry()
        if tracing or wall:
            self.tracer = SpanTracer(clock, wall_clock=wall_ns if wall else None)
        else:
            self.tracer = NULL_TRACER

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


class Observability:
    """A collection session: one scope per mount created under it.

    ``wall=True`` turns on dual-clock spans (simulated + wall time per
    span) for every mount in the session; see :class:`MountScope`.
    """

    def __init__(self, tracing: bool = False, wall: bool = False) -> None:
        self.tracing = tracing or wall
        self.wall = wall
        self.scopes: List[MountScope] = []

    def mount(self, name: str, clock: SimClock, owner: object) -> MountScope:
        """A new scope for ``owner``; it freezes when ``owner`` dies."""
        scope = MountScope(
            name, clock, tracing=self.tracing, pid=len(self.scopes),
            wall=self.wall,
        )
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

    def render_overhead(self) -> str:
        """Per-layer sim-vs-wall overhead map, one table per mount."""
        return "\n\n".join(render_overhead(scope) for scope in self.scopes)

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
