"""Host-speed calibration: how fast is this machine *right now*?

The reference box is a shared 2-vCPU VM whose speed moves by 15–30 %
for tens of seconds at a time (neighbours, not this process: steal time
stays near zero and a cache-resident loop barely notices).  A median
over the reps of one ~10 s run cannot see through such an episode, so
each rep's timed region is bracketed by this fixed kernel — ~20 ms of
simulator-like pure Python (LRU dict churn, small objects, bytes
slicing, struct, bisect, crc) that shares no code with ``src/`` — and
the rep's host durations are scaled by ``REFERENCE_S / kernel time``.

Host metrics are therefore reported in *calibrated* seconds: seconds
of a machine on which the kernel takes exactly :data:`REFERENCE_S`
(the reference box when quiet).  A change to the simulator cannot move
the kernel, so it moves the calibrated numbers exactly as it moves the
raw ones; a slow spell of the machine moves both clocks and cancels.
"""

from __future__ import annotations

import bisect
import statistics
import struct
import time
import zlib
from collections import OrderedDict

#: Kernel time on the reference box when quiet, seconds.
REFERENCE_S = 0.0200

_PAGE = bytes(4096)


class _Entry:
    __slots__ = ("key", "body", "uses")

    def __init__(self, key: int, body: bytes) -> None:
        self.key = key
        self.body = body
        self.uses = 0


def kernel_seconds() -> float:
    """Run the fixed kernel once; returns the host seconds it took."""
    t0 = time.perf_counter_ns()
    lru: "OrderedDict[int, _Entry]" = OrderedDict()
    keys: list = []
    acc = 0
    x = 12345
    for i in range(15000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 0x3FFF
        entry = lru.get(k)
        if entry is None:
            lru[k] = _Entry(k, _PAGE[: (k & 0xFFF) + 1])
            if len(lru) > 6000:
                lru.popitem(last=False)
        else:
            lru.move_to_end(k)
            entry.uses += 1
            acc += len(entry.body)
        if i & 7 == 0:
            keys.insert(bisect.bisect_left(keys, k), k)
            if len(keys) > 2000:
                del keys[::2]
            blob = struct.pack("<qBI", i, 3, k) + _PAGE[:200] + struct.pack("<I", k)
            acc += zlib.crc32(blob) & 0xFF
    acc += len(b"".join(entry.body for entry in lru.values()))
    return (time.perf_counter_ns() - t0) * 1e-9


def speed(samples) -> float:
    """Machine speed relative to the reference (1.0 = reference box,
    quiet) from kernel timings taken around a rep: their median."""
    return REFERENCE_S / statistics.median(samples)
