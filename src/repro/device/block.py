"""The simulated block device.

The device stores real bytes (so crash-consistency tests can reboot the
stack from device contents alone) and charges simulated time per I/O
according to a :class:`~repro.model.profiles.DeviceProfile`.

Asynchrony model
----------------

The device maintains its own ``busy_until`` horizon.  An I/O submitted
at simulated time *t* occupies the device from ``max(t, busy_until)``
for its duration.  Synchronous callers immediately wait for completion;
asynchronous callers receive a :class:`Completion` and only pay the
remaining time when they :meth:`BlockDevice.wait`.  This is what
lets read-ahead and write-back overlap with CPU work, the effect behind
several of the paper's optimizations.

Crash model
-----------

Two write-cache modes govern what a crash may lose:

* **durable cache** (the default) — the paper's SSD has a
  power-loss-protected cache, so every accepted command is in the
  crash image.  :meth:`BlockDevice.crash_image` with no plan returns
  exactly that, bit-identical to the pre-volatile-cache device.
* **volatile cache** (``volatile_cache=True`` or
  :meth:`enable_volatile_cache`) — every accepted write/TRIM is also
  recorded into the current **barrier epoch**; ``flush()`` seals the
  epoch.  :meth:`crash_image` then accepts a *crash plan* (see
  :mod:`repro.crashmc.plan`) selecting a barrier epoch and any subset
  of that epoch's commands, with sector-granular tearing of the last
  selected write and optional media faults (bit-flips, latent sector
  errors).  Earlier epochs are always fully durable — that is the
  barrier contract ``flush`` promises.  Volatile mode is a testing
  instrument: it retains the full post-enable write history in memory
  and charges no extra simulated time (timing and stats are
  bit-identical to durable mode for the same workload).

Group commit
------------

Under a scheduler (``clock.holds``; see ``repro/device/clock.py``) a
command first realizes the calling session's pending hold, and a
``flush`` joins the device's one pending :class:`FlushGroup` instead
of waiting.  An idle device issues the group at once; a busy one
leaves it to the scheduler, which issues it when the device goes idle
or nothing else can run.  The epoch is sealed when the group's flush
is issued, and every member's fsync is acknowledged at its completion.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union


class MediaError(IOError):
    """A read touched a latent bad sector injected by a crash plan."""

from repro.device.clock import FlushGroup, SimClock
from repro.device.ftl import FlashTranslationLayer
from repro.device.stats import IOStats
from repro.model.profiles import DeviceProfile


#: What a device write carries and a segment read returns: the bytes
#: of one extent as a tuple of immutable segments, in order.  A
#: serialized node is its front sections, its page slots — each the
#: page's own ``bytes`` — and the pads between them (scatter-gather
#: I/O); a plain ``bytes`` payload is a one-segment extent.
Segments = Tuple[bytes, ...]

#: A write payload: one buffer, or the segments of one (see
#: :data:`Segments`).
Payload = Union[bytes, Sequence[bytes]]


def as_segments(data: Payload) -> Segments:
    """``data`` as a segment tuple of immutable ``bytes``: a ``bytes``
    segment is kept by reference, any other buffer copied once."""
    if type(data) is bytes:
        return (data,)
    if isinstance(data, (bytearray, memoryview)):
        return (bytes(data),)
    segments = tuple(data)
    if set(map(type, segments)) <= {bytes}:
        return segments
    return tuple(map(bytes, segments))


def payload_len(data: Payload) -> int:
    """The byte length of a write payload."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    return sum(map(len, data))


def cut(
    segments: Segments, start: int, end: int, ends: Optional[Sequence[int]] = None
) -> Segments:
    """Bytes ``[start, end)`` of ``segments`` (``0 <= start < end <=``
    their length), as segments: whole segments by reference, the edge
    ones sliced.  ``ends`` (the running byte totals of ``segments``)
    saves recounting a long list."""
    if len(segments) == 1:
        seg = segments[0]
        return segments if start == 0 and end == len(seg) else (seg[start:end],)
    if ends is None:
        ends = list(accumulate(map(len, segments)))
    i = bisect.bisect_right(ends, start)
    j = bisect.bisect_left(ends, end)  # segments[j] holds byte end - 1
    head, tail = segments[i], segments[j]
    lo = start - ends[i] + len(head)
    hi = end - ends[j] + len(tail)
    if i == j:
        return segments[i : i + 1] if lo == 0 and hi == len(head) else (head[lo:hi],)
    return (
        head[lo:] if lo else head,
        *segments[i + 1 : j],
        tail if hi == len(tail) else tail[:hi],
    )


class Completion:
    """Handle for an in-flight asynchronous I/O."""

    __slots__ = ("done_at", "data", "write")

    def __init__(self, done_at: float, data: Optional[Segments], write: bool) -> None:
        self.done_at = done_at
        self.data = data
        self.write = write

    def ready(self, now: float) -> bool:
        return now >= self.done_at


class CacheRecord:
    """One command captured in a volatile-write-cache barrier epoch.

    ``kind`` is ``"write"`` (``data`` holds the payload's segments) or
    ``"discard"`` (``length`` holds the trimmed span).  ``seq`` is a
    device-wide monotonically increasing command number; crash plans
    select records by it.
    """

    __slots__ = ("seq", "kind", "offset", "data", "length")

    WRITE = "write"
    DISCARD = "discard"

    def __init__(
        self,
        seq: int,
        kind: str,
        offset: int,
        data: Payload = (),
        length: int = 0,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.offset = offset
        self.data = as_segments(data)
        self.length = length if kind == self.DISCARD else sum(map(len, self.data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheRecord(seq={self.seq}, {self.kind}, off={self.offset}, "
            f"len={self.length})"
        )


class ExtentStore:
    """Byte-addressable sparse storage backing a device.

    Data is kept as non-overlapping extents in a sorted list, each the
    :data:`Segments` its write carried: a node image stays its front
    sections, page slots and pads, so a page the page cache shares with
    the tree is held once, not copied into a device buffer.  Writes
    split or trim any overlapped extents (cutting a segment only where
    an edge falls inside it); reads assemble from covering extents,
    filling holes with zero bytes.  Extent boundaries are those of the
    writes, whatever their segments (:func:`repro.harness.mt.
    device_sha256` hashes extent by extent).

    Stored segments are immutable ``bytes`` and never change once
    written: sharing them — with the page cache, a decoded node, a
    crash twin — is safe because everyone who changes a page rebinds
    ``PageFrame.data`` to new bytes instead of editing the old ones.
    """

    def __init__(self) -> None:
        self._offsets: List[int] = []  # sorted extent start offsets
        #: Extent start -> (length, segments, running byte totals of
        #: the segments).  The totals are counted when a read or a
        #: write first cuts the extent — a node's reads find their
        #: first segment by bisection — and never for an extent nobody
        #: cuts (a journal commit).
        self._extents: Dict[int, Tuple[int, Segments, Optional[array]]] = {}

    def write(self, offset: int, data: Payload) -> None:
        segments = as_segments(data)
        length = len(segments[0]) if len(segments) == 1 else sum(map(len, segments))
        if not length:
            return
        self._punch(offset, offset + length)
        idx = bisect.bisect_left(self._offsets, offset)
        self._offsets.insert(idx, offset)
        self._extents[offset] = (length, segments, None)

    def _cut(self, off: int, start: int, end: int) -> Segments:
        """Bytes ``[start, end)`` of the extent at ``off``."""
        length, segments, ends = self._extents[off]
        if ends is None and len(segments) > 1:
            ends = array("q", accumulate(map(len, segments)))
            self._extents[off] = (length, segments, ends)
        return cut(segments, start, end, ends)

    def _punch(self, start: int, end: int) -> None:
        """Remove/trim any stored extents overlapping [start, end)."""
        # Find the first extent that could overlap: the one before start.
        idx = bisect.bisect_right(self._offsets, start) - 1
        if idx < 0:
            idx = 0
        while idx < len(self._offsets):
            off = self._offsets[idx]
            if off >= end:
                break
            length = self._extents[off][0]
            ext_end = off + length
            if ext_end <= start:
                idx += 1
                continue
            # Overlap: remove, then re-add any surviving head/tail.
            head = self._cut(off, 0, start - off) if off < start else ()
            tail = self._cut(off, end - off, length) if ext_end > end else ()
            del self._offsets[idx]
            del self._extents[off]
            if head:
                self._offsets.insert(idx, off)
                self._extents[off] = (start - off, head, None)
                idx += 1
            if tail:
                j = bisect.bisect_left(self._offsets, end)
                self._offsets.insert(j, end)
                self._extents[end] = (ext_end - end, tail, None)
                idx = j + 1

    def read_segments(self, offset: int, length: int) -> Segments:
        """Bytes ``[offset, offset + length)`` as segments: the stored
        ones by reference, sliced only at the read's edges, with a
        zero segment per hole."""
        if length <= 0:
            return ()
        end = offset + length
        pieces: List[bytes] = []
        pos = offset
        idx = bisect.bisect_right(self._offsets, offset) - 1
        if idx < 0:
            idx = 0
        while pos < end and idx < len(self._offsets):
            off = self._offsets[idx]
            ext_len, segments, _ends = self._extents[off]
            ext_end = off + ext_len
            if ext_end <= pos:
                idx += 1
                continue
            if off >= end:
                break
            if off > pos:
                pieces.append(bytes(off - pos))
                pos = off
            take_end = min(ext_end, end)
            if pos == off and take_end == ext_end:
                pieces.extend(segments)
            else:
                pieces.extend(self._cut(off, pos - off, take_end - off))
            pos = take_end
            idx += 1
        if pos < end:
            pieces.append(bytes(end - pos))
        return tuple(pieces)

    def read(self, offset: int, length: int) -> bytes:
        """Bytes ``[offset, offset + length)``, joined (a read inside
        one segment is that segment, or a slice of it)."""
        return b"".join(self.read_segments(offset, length))

    def discard(self, offset: int, length: int) -> None:
        """TRIM a byte range."""
        self._punch(offset, offset + length)

    def stored_bytes(self) -> int:
        return sum(extent[0] for extent in self._extents.values())

    def extent_count(self) -> int:
        return len(self._offsets)

    # ------------------------------------------------------------------
    # Snapshots (crash images)
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Tuple[int, Segments]]:
        """The stored extents as ``(offset, segments)`` pairs, offset
        order.  The public API for copying a store's contents — crash
        twins must not reach into the private extent structures.  The
        segments are the stored objects themselves: walk them extent by
        extent, and never join the store."""
        return [(off, self._extents[off][1]) for off in self._offsets]

    @classmethod
    def from_snapshot(cls, extents: List[Tuple[int, Payload]]) -> "ExtentStore":
        """Rebuild a store from :meth:`snapshot` output; the twin
        shares the (immutable) segments."""
        store = cls()
        for off, data in extents:
            store.write(off, data)
        return store


class BlockDevice:
    """A simulated block device with a performance profile.

    All offsets/lengths are bytes; I/O is rounded up to the profile's
    sector size for timing and accounting purposes (stored data is kept
    byte-exact for simplicity).
    """

    def __init__(
        self,
        clock: SimClock,
        profile: DeviceProfile,
        charge_time: bool = True,
        obs=None,
        volatile_cache: bool = False,
    ) -> None:
        self.clock = clock
        self.profile = profile
        self.stats = IOStats()
        self.store = ExtentStore()
        #: Volatile-write-cache epoch log (crash exploration; see the
        #: module docstring).  ``_base`` is the store snapshot at
        #: enable time; ``_epochs`` holds the records of every sealed
        #: barrier epoch; ``_open_epoch`` collects commands accepted
        #: since the last flush.
        self.volatile_cache = volatile_cache
        self._base: List[Tuple[int, Segments]] = []
        self._epochs: List[List[CacheRecord]] = []
        self._open_epoch: List[CacheRecord] = []
        self._cache_seq = 0
        #: Latent sector errors injected by a crash plan (crash twins
        #: only); reads touching one raise :class:`MediaError`.
        self._bad_sectors: frozenset = frozenset()
        #: Page-mapped FTL timing/accounting model (None when the
        #: profile has no flash geometry: HDDs, the null device).
        self.ftl: Optional[FlashTranslationLayer] = (
            FlashTranslationLayer(profile.ftl, profile.capacity)
            if profile.ftl is not None
            else None
        )
        self.attach_obs(obs)
        #: Device timeline: the device is busy until this instant.
        self.busy_until = 0.0
        #: Tails of recent sequential streams (SSDs and the kernel both
        #: detect several concurrent sequential streams, e.g. a log and
        #: a node file being appended simultaneously).
        self._read_streams: List[int] = []
        self._write_streams: List[int] = []
        #: Bytes written since the write cache was last able to drain.
        self._cache_fill = 0.0
        self._cache_fill_at = 0.0
        #: Once the cache saturates mid-stream, writes stay at the
        #: sustained rate until the device has been idle long enough
        #: for internal garbage collection (hysteresis).
        self._cache_saturated = False
        self.charge_time = charge_time
        #: The flush group scheduled sessions' barriers are joining
        #: (``None`` when none is pending).
        self._group: Optional[FlushGroup] = None
        #: Optional sanitizer suite (pure observer; see repro.check).
        self.san = None
        #: Optional durability-order recorder (pure observer; see
        #: repro.check.order — the durflow runtime backstop).
        self.order = None

    #: Idle seconds after which a saturated write cache recovers.
    CACHE_RECOVERY_IDLE = 0.5

    def attach_obs(self, obs) -> None:
        """Register this device with an observability scope.

        ``obs`` is a :class:`repro.obs.MountScope` (or None).  The
        existing :class:`IOStats` object is registered as-is; latency
        histograms and device-timeline trace events are only recorded
        when a scope is attached, so raw devices stay unobserved.
        """
        self._obs = obs
        if obs is None:
            self._tracer = None
            self._lat_read = None
            self._lat_write = None
            self._lat_gc = None
            return
        obs.register_object("device.io", self.stats, layer="device")
        obs.registry.gauge(
            "device.busy_fraction",
            layer="device",
            fn=lambda: (
                self.stats.busy_time / self.clock.now if self.clock.now > 0 else 0.0
            ),
        )
        self._tracer = obs.tracer
        self._lat_read = obs.latency("device.read_latency", layer="device")
        self._lat_write = obs.latency("device.write_latency", layer="device")
        if self.ftl is not None:
            ftl = self.ftl
            obs.register_object("device.ftl", ftl.stats, layer="device")
            obs.registry.gauge(
                "ftl.write_amplification", layer="device",
                fn=ftl.write_amplification,
            )
            obs.registry.gauge(
                "ftl.free_blocks", layer="device", fn=ftl.free_blocks
            )
            obs.registry.gauge(
                "ftl.erase_count_max", layer="device", fn=ftl.erase_count_max
            )
            self._lat_gc = obs.latency("device.gc_pause", layer="device")
        else:
            self._lat_gc = None

    # ------------------------------------------------------------------
    # Volatile write cache (crash exploration)
    # ------------------------------------------------------------------
    def enable_volatile_cache(self) -> None:
        """Start recording barrier epochs from the current contents.

        Everything already stored becomes the durable base; subsequent
        writes/TRIMs join the open epoch until the next ``flush``.
        Idempotent.  Purely observational: no simulated time is
        charged, and the read/write paths behave identically.
        """
        if self.volatile_cache:
            return
        self.volatile_cache = True
        self._base = self.store.snapshot()

    def _record(self, record: CacheRecord) -> None:
        self._open_epoch.append(record)

    def _next_seq(self) -> int:
        seq = self._cache_seq
        self._cache_seq += 1
        return seq

    def _seal_epoch(self) -> None:
        """A flush barrier completed: the open epoch becomes durable."""
        if not self.volatile_cache:
            return
        self._epochs.append(self._open_epoch)
        self._open_epoch = []

    def sealed_epochs(self) -> int:
        """Number of barrier epochs sealed since volatile-cache enable."""
        return len(self._epochs)

    def epoch_records(self, epoch: Optional[int] = None) -> Tuple[CacheRecord, ...]:
        """Commands of one barrier epoch (``None`` = the open epoch)."""
        if epoch is None:
            return tuple(self._open_epoch)
        return tuple(self._epochs[epoch])

    def unflushed(self) -> Tuple[CacheRecord, ...]:
        """Commands accepted since the last flush barrier."""
        return tuple(self._open_epoch)

    def _check_media(self, offset: int, length: int) -> None:
        if not self._bad_sectors:
            return
        sector = self.profile.sector
        first = offset // sector
        last = (offset + max(length, 1) - 1) // sector
        for s in range(first, last + 1):
            if s in self._bad_sectors:
                raise MediaError(
                    f"latent sector error: sector {s} "
                    f"(read of {length} bytes at {offset})"
                )

    # ------------------------------------------------------------------
    # Internal timing
    # ------------------------------------------------------------------
    def _round(self, nbytes: int) -> int:
        sector = self.profile.sector
        return ((max(nbytes, 1) + sector - 1) // sector) * sector

    def _drain_cache(self) -> None:
        """Let the internal write cache drain at the sustained rate."""
        if self.profile.write_cache <= 0:
            return
        elapsed = self.clock.now - self._cache_fill_at
        if elapsed > 0:
            self._cache_fill = max(
                0.0, self._cache_fill - elapsed * self.profile.sustained_write_bw
            )
            if elapsed >= self.CACHE_RECOVERY_IDLE:
                self._cache_saturated = False
        self._cache_fill_at = self.clock.now

    def _io_duration(self, nbytes: int, write: bool, sequential: bool) -> float:
        p = self.profile
        # Sequential continuations are merged by the block layer into
        # the preceding request (bio merging); only stream starts and
        # random I/O pay per-command overhead.
        dur = 0.0 if sequential else p.cmd_overhead
        if write:
            self._drain_cache()
            if p.write_cache > 0 and self._cache_fill + nbytes > p.write_cache:
                self._cache_saturated = True
            self._cache_fill += nbytes
            dur += p.transfer_time(nbytes, True, self._cache_saturated)
            if not sequential:
                dur += p.rand_write_lat
        else:
            dur += p.transfer_time(nbytes, False, False)
            if not sequential:
                dur += p.rand_read_lat
        return dur

    def _schedule(self, duration: float) -> float:
        """Occupy the device for ``duration``; return completion time."""
        start = max(self.busy_until, self.clock.now)
        self.busy_until = start + duration
        return self.busy_until

    # ------------------------------------------------------------------
    # Public I/O API
    # ------------------------------------------------------------------
    MAX_STREAMS = 8
    #: An I/O starting within this distance after a stream's tail still
    #: counts as sequential (FTLs tolerate small alignment gaps).
    STREAM_SLACK = 8 * 1024

    def _note_stream(self, streams: List[int], offset: int, end: int) -> bool:
        """Track up to MAX_STREAMS sequential streams; returns whether
        this I/O continues one of them."""
        for i, tail in enumerate(streams):
            if 0 <= offset - tail <= self.STREAM_SLACK:
                del streams[i]
                streams.append(end)
                return True
        streams.append(end)
        if len(streams) > self.MAX_STREAMS:
            streams.pop(0)
        return False

    def submit_read(self, offset: int, length: int) -> Completion:
        """Start an asynchronous read; wait() returns its segments."""
        if self.clock.hold is not None:
            self.clock.realize()
        self._check_media(offset, length)
        nbytes = self._round(length)
        sequential = self._note_stream(self._read_streams, offset, offset + length)
        dur = self._io_duration(nbytes, write=False, sequential=sequential)
        done = self._schedule(dur) if self.charge_time else self.clock.now
        self.stats.record(False, nbytes, sequential, dur, raw_nbytes=length)
        if self._lat_read is not None:
            self._lat_read.observe(dur)
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "dev.read", "device", done - dur, dur,
                    bytes=nbytes, seq=sequential,
                )
        data = self.store.read_segments(offset, length)
        if self.san is not None:
            self.san.on_device_op(self, "read", dur)
        return Completion(done, data, write=False)

    def submit_write(self, offset: int, data: Payload) -> Completion:
        """Start an asynchronous write (data is durable only after flush).

        ``data`` is one buffer or a node's segments, handed on to the
        store by reference (scatter-gather DMA)."""
        if self.clock.hold is not None:
            self.clock.realize()
        length = payload_len(data)
        nbytes = self._round(length)
        sequential = self._note_stream(
            self._write_streams, offset, offset + length
        )
        dur = self._io_duration(nbytes, write=True, sequential=sequential)
        gc_seconds = 0.0
        if self.ftl is not None:
            # The FTL maps the written pages; if that drops the free
            # pool below the watermark, this write absorbs the GC
            # copy + erase time (the steady-state tail-latency pause).
            gc_seconds = self.ftl.host_write(offset, length)
            dur += gc_seconds
        done = self._schedule(dur) if self.charge_time else self.clock.now
        self.stats.record(True, nbytes, sequential, dur, raw_nbytes=length)
        if self._lat_write is not None:
            self._lat_write.observe(dur)
            if gc_seconds > 0.0 and self._lat_gc is not None:
                self._lat_gc.observe(gc_seconds)
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "dev.write", "device", done - dur, dur,
                    bytes=nbytes, seq=sequential,
                )
                if gc_seconds > 0.0:
                    tracer.event(
                        "dev.gc", "device", done - gc_seconds, gc_seconds,
                    )
        self.store.write(offset, data)
        if self.volatile_cache:
            self._record(
                CacheRecord(self._next_seq(), CacheRecord.WRITE, offset, data)
            )
        if self.san is not None:
            self.san.on_device_op(self, "write", dur)
        if self.order is not None:
            self.order.on_write(offset, length)
        return Completion(done, None, write=True)

    def wait(self, completion: Completion) -> Optional[Segments]:
        """Wait for an async I/O to complete; returns a read's segments."""
        if self.charge_time:
            self.clock.wait_until(completion.done_at)
        return completion.data

    def _read(self, offset: int, length: int) -> Segments:
        completion = self.submit_read(offset, length)
        data = self.wait(completion)
        if data is None:
            raise IOError(f"read completion carried no data at {offset}")
        return data

    def read_segments(self, offset: int, length: int) -> Segments:
        """Synchronous read of the stored segments (no join)."""
        return self._read(offset, length)

    def read(self, offset: int, length: int) -> bytes:
        """Synchronous read, joined into one buffer."""
        return b"".join(self._read(offset, length))

    def write(self, offset: int, data: Payload) -> None:
        """Synchronous write (returns when the device accepts the I/O)."""
        completion = self.submit_write(offset, data)
        self.wait(completion)

    def flush(self) -> None:
        """Barrier: wait for all outstanding I/O plus a cache flush.

        In volatile-cache mode this is also the durability boundary:
        the open barrier epoch is sealed, so everything accepted so far
        appears in every subsequent crash image regardless of the plan.
        A scheduled session's barrier joins the device's flush group
        instead (see the module docstring).
        """
        if not self.charge_time:
            self.stats.record_flush(0.0)
            if self.san is not None:
                self.san.on_device_op(self, "flush", 0.0)
            if self.order is not None:
                self.order.on_flush()
            self._seal_epoch()
            return
        clock = self.clock
        if clock.holds:
            self._join_group(clock)
            return
        done = self._issue_flush()
        clock.wait_until(done)
        self._seal_epoch()

    def _join_group(self, clock: SimClock) -> None:
        """Hold the calling session on this device's flush group.

        A pending wait that ends no later than this device's queue
        stays folded into the hold (the flush starts after both).  Any
        other pending hold is realized first: a backoff past the queue,
        or an earlier barrier of the same call, so two barriers in one
        call are two flushes, as unscheduled."""
        if clock.group is not None or (
            clock.hold is not None and clock.hold > self.busy_until
        ):
            clock.realize()
        group = self._group
        if group is None:
            group = self._group = FlushGroup(self)
        if clock.hold is None:
            clock.hold = clock.now
        clock.group = group
        if self.busy_until <= clock.now:
            group.issue()

    def _issue_group(self, group: FlushGroup) -> float:
        """Issue ``group``'s one flush and seal the epoch it closes;
        returns the completion instant (nobody waits here)."""
        self._group = None
        done = self._issue_flush()
        self._seal_epoch()
        return done

    def _issue_flush(self) -> float:
        """Put one cache flush on the device timeline; returns its
        completion instant."""
        dur = self.profile.flush_lat
        done = self._schedule(dur)
        self.stats.record_flush(dur)
        if self._lat_write is not None:
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.event("dev.flush", "device", done - dur, dur)
        if self.san is not None:
            self.san.on_device_op(self, "flush", dur)
        if self.order is not None:
            self.order.on_flush()
        return done

    def discard(self, offset: int, length: int) -> None:
        """TRIM a byte range.

        Queued like any other command: it charges the per-command
        overhead on the device timeline (without blocking the caller)
        and unmaps the covered flash pages, so garbage collection on a
        trimmed device finds cheaper victims.
        """
        if self.clock.hold is not None:
            self.clock.realize()
        dur = self.profile.cmd_overhead
        if self.charge_time:
            self._schedule(dur)
        else:
            dur = 0.0
        self.stats.record_discard(length, dur)
        if self.ftl is not None:
            self.ftl.trim(offset, length)
        self.store.discard(offset, length)
        if self.volatile_cache:
            self._record(
                CacheRecord(
                    self._next_seq(), CacheRecord.DISCARD, offset, length=length
                )
            )
        if self.san is not None:
            self.san.on_device_op(self, "discard", dur)
        if self.order is not None:
            self.order.on_discard(offset, length)

    # ------------------------------------------------------------------
    # Crash simulation
    # ------------------------------------------------------------------
    def crash_image(self, plan=None, obs=None) -> "BlockDevice":
        """Return a new device holding a copy of a crashed state.

        The copy shares no mutable state with this device; a stack can
        be rebooted against it to exercise crash recovery.  This call
        never perturbs the live device, so many images (one per plan)
        can be materialized from the same instant.

        With ``plan=None`` the write cache is treated as durable — the
        paper's SSD has a power-loss-protected cache — so everything
        accepted is in the image, and the image carries the cloned FTL
        state: an aged device's crash twin reboots equally aged, with
        the same mapping, free pool, and wear.  This is the historical
        behaviour and stays bit-identical to the pre-volatile-cache
        device.

        With a *crash plan* (volatile-cache mode only; see
        :mod:`repro.crashmc.plan`) the image is **durable epochs before
        ``plan.epoch`` + the plan-selected subset of that epoch**, with
        the last selected write optionally torn at sector granularity
        (``plan.torn_tail_sectors`` leading sectors persist) and
        optional media faults applied: ``plan.bitflips`` XOR stored
        bytes, ``plan.bad_sectors`` become latent read errors
        (:class:`MediaError`).  FTL accounting state is *not* part of
        the crash contract — it describes accepted commands, not
        persisted ones — so planned images carry no FTL and the offline
        fsck skips its FTL leg.

        Wiring: the twin inherits the profile and ``charge_time`` but
        is born *unobserved* and *unsanitized* — its clock starts at
        zero, so attaching the crashed mount's tracer or sanitizers
        (which reference the old clock and environment) would corrupt
        both timelines.  Pass ``obs`` (a :class:`repro.obs.MountScope`
        built on the twin's clock) or call :meth:`attach_obs` to
        observe the reboot; a recovering environment re-installs
        sanitizers via its own ``config.sanitize``.
        """
        twin = BlockDevice(SimClock(), self.profile, charge_time=self.charge_time)
        if plan is None:
            twin.store = ExtentStore.from_snapshot(self.store.snapshot())
            if self.ftl is not None:
                twin.ftl = self.ftl.clone()
            twin.attach_obs(obs)
            return twin
        if not self.volatile_cache:
            raise ValueError(
                "crash plans require volatile-cache mode "
                "(BlockDevice(volatile_cache=True) or enable_volatile_cache())"
            )
        store = ExtentStore.from_snapshot(self._base)
        epoch = plan.epoch if plan.epoch is not None else len(self._epochs)
        if not 0 <= epoch <= len(self._epochs):
            raise ValueError(
                f"plan epoch {epoch} out of range (0..{len(self._epochs)})"
            )
        for records in self._epochs[:epoch]:
            self._apply_records(store, records)
        at_risk = (
            self._open_epoch if epoch == len(self._epochs) else self._epochs[epoch]
        )
        selected_seqs = set(plan.selected)
        selected = [r for r in at_risk if r.seq in selected_seqs]
        self._apply_records(
            store, selected, torn_tail_sectors=plan.torn_tail_sectors
        )
        for off, mask in plan.bitflips:
            # Offline snapshot surgery: no simulated timeline to charge.
            cur = store.read(off, 1)
            store.write(off, bytes([cur[0] ^ (mask & 0xFF or 0x01)]))
        twin.store = store
        twin.ftl = None
        twin._bad_sectors = frozenset(plan.bad_sectors)
        twin.attach_obs(obs)
        return twin

    def _apply_records(
        self,
        store: ExtentStore,
        records: Sequence[CacheRecord],
        torn_tail_sectors: Optional[int] = None,
    ) -> None:
        """Replay cache records into ``store`` in acceptance order.

        ``torn_tail_sectors`` tears the *last write* of ``records``:
        only that many leading sectors of its payload persist.
        """
        last_write = None
        if torn_tail_sectors is not None:
            for rec in reversed(records):
                if rec.kind == CacheRecord.WRITE:
                    last_write = rec
                    break
        for rec in records:
            if rec.kind == CacheRecord.DISCARD:
                store.discard(rec.offset, rec.length)
                continue
            data = rec.data
            if rec is last_write:
                kept = min(torn_tail_sectors * self.profile.sector, rec.length)
                data = cut(data, 0, kept) if kept else ()
            if data:
                # Charged when the cached write was accepted, not here.
                store.write(rec.offset, data)
