"""Dual-clock span tracing, installed from outside the program.

For the one traced repetition of a run, :class:`SpanTracer` wraps — on
the live mount's *instances*, never the classes — the public methods of
each layer object, plus the serializer names ``repro.core.tree``
imports.  Every call becomes a span: layer, parent span, and start/end
on both clocks (``perf_counter_ns`` and ``mount.clock.now``).  Spans
stay in memory (parallel arrays) until the rep ends; :meth:`layer_table`
then computes per layer the call count and the *self* time — a span's
duration minus the part its child spans cover — on each clock.

The wrappers only read the two clocks, so simulated time and the device
image are identical with and without them (the self-tests pin this).
They are not free in host time: a wrapper's own cost lands in the
*parent* span's self time, which inflates layers that make many cheap
calls.  ``perfbench.trace_overhead_frac`` reports the total.
"""

from __future__ import annotations

import inspect
import time
from array import array
from typing import Callable, Dict, List, Tuple

import repro.core.tree as tree_module

from perfbench.metrics import LAYERS

#: Names ``repro.core.tree`` imported from ``repro.core.serialize``.
SERIALIZE_NAMES = (
    "serialize_node",
    "decode_node",
    "decode_basement",
    "decode_leaf_header",
)


def layer_objects(mount) -> List[Tuple[object, str]]:
    """Every layer object of a live mount, with its layer name."""
    out: List[Tuple[object, str]] = [
        (mount.vfs, "vfs"),
        (mount.vfs.pages, "vfs.pagecache"),
        (mount.vfs.dcache, "vfs.dcache"),
        (mount.device, "device"),
    ]
    env = getattr(mount, "env", None)
    if env is None:
        out.append((mount.backend, "baselines"))
    else:
        if hasattr(env, "envs"):  # sharded: router above N volumes
            out.append((mount.backend, "shard"))
            out.append((env, "shard"))
            envs = list(env.envs)
            out.extend((nb, "betrfs.northbound") for nb in mount.backend.backends)
            out.extend((s, "storage") for s in mount.storages)
        else:
            out.append((mount.backend, "betrfs.northbound"))
            envs = [env]
            out.append((mount.storage, "storage"))
        out.append((mount.alloc, "kmem"))
        for e in envs:
            out.append((e, "core.env"))
            out.append((e.wal, "core.wal"))
            out.append((e.cache, "core.cache"))
            for tree in e.trees:
                out.append((tree, "core.tree"))
                out.append((tree.blockman, "core.checkpoint"))
    return out


def sched_objects(sched) -> List[Tuple[object, str]]:
    """A scheduler and its sessions' contexts (generator primitives are
    skipped by :meth:`SpanTracer.attach`; their time is the scheduler's)."""
    return [(sched, "sched")] + [(s.ctx, "sched") for s in sched.sessions]


#: Methods reported under another layer than their object's.
METHOD_LAYER = {("core.env", "checkpoint"): "core.checkpoint"}


class SpanTracer:
    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("l")
        self.h0 = array("q")
        self.h1 = array("q")
        self.s0 = array("d")
        self.s1 = array("d")
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self._clock = None

    def __len__(self) -> int:
        return len(self.layer)

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str) -> Callable:
        layer_idx = LAYERS.index(layer)
        layers, parents = self.layer, self.parent
        h0, h1, s0, s1 = self.h0, self.h1, self.s0, self.s1
        stack = self._stack
        clock = self._clock
        now_ns = time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(layers)
            layers.append(layer_idx)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            h1.append(0)
            s1.append(0.0)
            s0.append(clock.now)
            h0.append(now_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                h1[idx] = now_ns()
                s1[idx] = clock.now
                stack.pop()

        return span

    def attach(self, clock, objects: List[Tuple[object, str]]) -> None:
        """Wrap the public methods of each ``(object, layer)`` as
        instance attributes, stamping sim time from ``clock``."""
        self._clock = clock
        for obj, layer in objects:
            for name, func in inspect.getmembers(type(obj), inspect.isfunction):
                if name.startswith("_") or inspect.isgeneratorfunction(func):
                    continue
                self._set(obj, name, METHOD_LAYER.get((layer, name), layer))

    def attach_serializers(self) -> None:
        """Wrap the serializer names ``repro.core.tree`` imported."""
        for name in SERIALIZE_NAMES:
            self._set(tree_module, name, "core.serialize")

    def _set(self, obj, name: str, layer: str) -> None:
        had = name in vars(obj)
        old = getattr(obj, name)
        setattr(obj, name, self._wrap(old, layer))
        if had:
            self._undo.append(lambda: setattr(obj, name, old))
        else:
            self._undo.append(lambda: delattr(obj, name))

    def detach(self) -> None:
        while self._undo:
            self._undo.pop()()

    def begin(self) -> None:
        """Open the root span (layer ``perfbench``)."""
        idx = len(self.layer)
        self.layer.append(0)
        self.parent.append(-1)
        self._stack.append(idx)
        self.h1.append(0)
        self.s1.append(0.0)
        self.s0.append(self._clock.now)
        self.h0.append(time.perf_counter_ns())

    def end(self) -> None:
        idx = self._stack.pop()
        self.h1[idx] = time.perf_counter_ns()
        self.s1[idx] = self._clock.now

    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[List[int], List[float]]:
        """Per-span self time on the host (ns) and sim (s) clocks."""
        n = len(self.layer)
        host = [self.h1[i] - self.h0[i] for i in range(n)]
        sim = [self.s1[i] - self.s0[i] for i in range(n)]
        host_self, sim_self = list(host), list(sim)
        for i, p in enumerate(self.parent):
            if p >= 0:
                host_self[p] -= host[i]
                sim_self[p] -= sim[i]
        return host_self, sim_self

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_s, sim_self_s}}`` over all spans."""
        host_self, sim_self = self.self_times()
        table = {
            name: {"calls": 0, "self_s": 0.0, "sim_self_s": 0.0} for name in LAYERS
        }
        rows = [table[name] for name in LAYERS]
        for i, layer_idx in enumerate(self.layer):
            row = rows[layer_idx]
            row["calls"] += 1
            row["self_s"] += host_self[i] * 1e-9
            row["sim_self_s"] += sim_self[i]
        return table

    def spans(self):
        """Iterate spans as dicts (for ``--spans-out``)."""
        for i in range(len(self.layer)):
            yield {
                "id": i,
                "layer": LAYERS[self.layer[i]],
                "parent": self.parent[i],
                "host_ns": [self.h0[i], self.h1[i]],
                "sim_s": [self.s0[i], self.s1[i]],
            }
