"""Metrics primitives and the per-mount registry.

Three first-class metric types (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`) plus an *object collector* that snapshots the
numeric fields of the existing ad-hoc stats objects (``IOStats``,
``TreeStats``, ``PacmanStats``, ``AllocStats``, the cache hit/miss
counters, ...) at collection time.  Registering an object costs
nothing per operation — the stats keep their current APIs and are
only introspected when a report is produced, or once when the
registry is frozen (:meth:`MetricsRegistry.freeze`) to let them go.

Histograms come in two bucketings:

* ``Histogram.log2`` — dynamic power-of-two buckets keyed by upper
  bound, matching the device's existing I/O size histograms;
* ``Histogram.latency`` — fixed log-spaced buckets (1-2-5 series from
  100 ns to 100 s of *simulated* time), supporting p50/p95/p99
  estimates by linear interpolation within the containing bucket.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.errors import require
#: 1-2-5 series from 100 ns to 100 s — the span of simulated latencies.
LATENCY_BOUNDS: Tuple[float, ...] = tuple(
    m * (10.0**e) for e in range(-7, 3) for m in (1.0, 2.0, 5.0)
)

_INF = math.inf


def _label_key(name: str, labels: Dict[str, str]) -> Tuple:
    return (name,) + tuple(sorted(labels.items()))


class Metric:
    """Base: a named, labeled observable."""

    kind = "metric"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})

    @property
    def layer(self) -> str:
        return self.labels.get("layer", "")

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge(Metric):
    """A point-in-time value; may be backed by a callback."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}

    def freeze(self) -> None:
        """Keep the callback's current value and drop the callback."""
        if self._fn is not None:
            self._value = self._fn()
            self._fn = None


class Histogram(Metric):
    """A bucketed distribution with percentile estimation.

    Fixed-bounds mode keeps a count array parallel to ``bounds`` plus
    one overflow slot; log2 mode keeps a sparse dict of power-of-two
    upper bounds (bucket ``b`` covers ``(b/2, b]``; bucket 1 covers
    ``[0, 1]``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        bounds: Optional[Tuple[float, ...]] = None,
        unit: str = "",
    ) -> None:
        super().__init__(name, labels)
        self.unit = unit
        self._bounds = tuple(bounds) if bounds is not None else None
        self._counts: Optional[List[int]] = (
            [0] * (len(self._bounds) + 1) if self._bounds is not None else None
        )
        self._pow2: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def latency(cls, name: str, labels: Optional[Dict[str, str]] = None) -> "Histogram":
        return cls(name, labels, bounds=LATENCY_BOUNDS, unit="s")

    @classmethod
    def log2(cls, name: str, labels: Optional[Dict[str, str]] = None, unit: str = "B") -> "Histogram":
        return cls(name, labels, bounds=None, unit=unit)

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._bounds is None:
            bucket = 1
            while bucket < value:
                bucket <<= 1
            self._pow2[bucket] = self._pow2.get(bucket, 0) + 1
        else:
            require(self._counts is not None, "histogram bounds set but counts missing")
            self._counts[bisect.bisect_left(self._bounds, value)] += 1

    # -- reading --------------------------------------------------------
    def buckets(self) -> List[Tuple[float, int]]:
        """Non-empty ``(upper_bound, count)`` pairs in bound order."""
        if self._bounds is None:
            return sorted(self._pow2.items())
        require(self._counts is not None, "histogram bounds set but counts missing")
        out: List[Tuple[float, int]] = []
        for i, c in enumerate(self._counts):
            if c:
                ub = self._bounds[i] if i < len(self._bounds) else _INF
                out.append((ub, c))
        return out

    def _bucket_lower(self, upper: float) -> float:
        if self._bounds is None:
            return upper / 2.0 if upper > 1 else 0.0
        idx = bisect.bisect_left(self._bounds, upper)
        if upper is _INF or idx >= len(self._bounds):
            return self._bounds[-1]
        return self._bounds[idx - 1] if idx > 0 else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (0-100) by interpolating
        linearly inside the containing bucket, clamped to observed
        min/max."""
        if self.count == 0:
            return None
        require(
            self.min is not None and self.max is not None,
            "histogram has samples but no min/max",
        )
        target = (q / 100.0) * self.count
        cum = 0
        for upper, c in self.buckets():
            if cum + c >= target:
                lower = self._bucket_lower(upper)
                if upper is _INF or upper == _INF:
                    value = self.max
                else:
                    frac = (target - cum) / c
                    value = lower + frac * (upper - lower)
                return min(max(value, self.min), self.max)
            cum += c
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "unit": self.unit,
            "buckets": {repr(ub): c for ub, c in self.buckets()},
        }


# ----------------------------------------------------------------------
# Object collection (the existing ad-hoc stats)
# ----------------------------------------------------------------------
def snapshot_object(obj: Any, depth: int = 2) -> Dict[str, Any]:
    """Snapshot the public numeric state of an ad-hoc stats object.

    Includes ints/floats, dicts whose values are numeric (size/count
    histograms), and — one level deep — nested stats objects (e.g.
    ``TreeStats.pacman``).  Everything else is skipped.
    """
    out: Dict[str, Any] = {}
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        return out
    for attr, value in fields.items():
        if attr.startswith("_"):
            continue
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[attr] = value
        elif isinstance(value, dict) and value and all(
            isinstance(v, (int, float)) for v in value.values()
        ):
            out[attr] = {str(k): v for k, v in sorted(value.items())}
        elif depth > 0 and hasattr(value, "__dict__"):
            nested = snapshot_object(value, depth - 1)
            if nested:
                out[attr] = nested
    return out


class MetricsRegistry:
    """One registry per mount: metrics plus registered stats objects."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple, Metric] = {}
        self._objects: List[Tuple[str, str, Any]] = []  # (name, layer, obj)

    # -- get-or-create accessors ---------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, str], **kwargs) -> Metric:
        key = _label_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, layer: str = "", **labels: str) -> Counter:
        if layer:
            labels["layer"] = layer
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(
        self, name: str, layer: str = "", fn: Optional[Callable[[], float]] = None, **labels: str
    ) -> Gauge:
        if layer:
            labels["layer"] = layer
        return self._get(Gauge, name, labels, fn=fn)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        layer: str = "",
        bounds: Optional[Tuple[float, ...]] = LATENCY_BOUNDS,
        unit: str = "s",
        **labels: str,
    ) -> Histogram:
        if layer:
            labels["layer"] = layer
        return self._get(Histogram, name, labels, bounds=bounds, unit=unit)  # type: ignore[return-value]

    def latency(self, name: str, layer: str = "", **labels: str) -> Histogram:
        return self.histogram(name, layer=layer, bounds=LATENCY_BOUNDS, unit="s", **labels)

    def register_object(self, name: str, obj: Any, layer: str = "") -> None:
        """Expose an existing stats object; snapshotted at collect()."""
        self._objects.append((name, layer, obj))

    def freeze(self) -> None:
        """Let go of everything registered: each object becomes its
        snapshot and each callback gauge its value, so :meth:`collect`
        returns the same from now on without keeping them alive."""
        self._objects = [
            (name, layer, obj if isinstance(obj, dict) else snapshot_object(obj))
            for name, layer, obj in self._objects
        ]
        for metric in self._metrics.values():
            if isinstance(metric, Gauge):
                metric.freeze()

    # -- iteration/collection ------------------------------------------
    def metrics(self) -> List[Metric]:
        return list(self._metrics.values())

    def find(self, name: str, **labels: str) -> Optional[Metric]:
        return self._metrics.get(_label_key(name, labels))

    def collect(self) -> Dict[str, Any]:
        """A JSON-able snapshot of every metric and registered object."""
        metrics = []
        for metric in self._metrics.values():
            entry = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": metric.labels,
            }
            entry.update(metric.snapshot())
            metrics.append(entry)
        objects = {}
        for name, layer, obj in self._objects:
            # A frozen entry is its snapshot (a dict).
            snap = dict(obj) if isinstance(obj, dict) else snapshot_object(obj)
            snap["_layer"] = layer
            objects[name] = snap
        return {"metrics": metrics, "objects": objects}
