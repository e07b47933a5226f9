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
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple


class MediaError(IOError):
    """A read touched a latent bad sector injected by a crash plan."""

from repro.device.clock import SimClock
from repro.device.ftl import FlashTranslationLayer
from repro.device.stats import IOStats
from repro.model.profiles import DeviceProfile


class Completion:
    """Handle for an in-flight asynchronous I/O."""

    __slots__ = ("done_at", "data", "write")

    def __init__(self, done_at: float, data: Optional[bytes], write: bool) -> None:
        self.done_at = done_at
        self.data = data
        self.write = write

    def ready(self, now: float) -> bool:
        return now >= self.done_at


class CacheRecord:
    """One command captured in a volatile-write-cache barrier epoch.

    ``kind`` is ``"write"`` (``data`` holds the payload) or
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
        data: bytes = b"",
        length: int = 0,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.offset = offset
        self.data = data
        self.length = length if kind == self.DISCARD else len(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheRecord(seq={self.seq}, {self.kind}, off={self.offset}, "
            f"len={self.length})"
        )


class ExtentStore:
    """Byte-addressable sparse storage backing a device.

    Data is kept as non-overlapping ``(offset, bytes)`` extents in a
    sorted list.  Writes split or trim any overlapped extents; reads
    assemble from covering extents, filling holes with zero bytes.
    """

    def __init__(self) -> None:
        self._offsets: List[int] = []  # sorted extent start offsets
        self._extents: Dict[int, bytes] = {}

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        end = offset + len(data)
        self._punch(offset, end)
        idx = bisect.bisect_left(self._offsets, offset)
        self._offsets.insert(idx, offset)
        self._extents[offset] = bytes(data)

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
            data = self._extents[off]
            ext_end = off + len(data)
            if ext_end <= start:
                idx += 1
                continue
            # Overlap: remove, then re-add any surviving head/tail.
            del self._offsets[idx]
            del self._extents[off]
            if off < start:
                head = data[: start - off]
                self._offsets.insert(idx, off)
                self._extents[off] = head
                idx += 1
            if ext_end > end:
                tail = data[end - off :]
                j = bisect.bisect_left(self._offsets, end)
                self._offsets.insert(j, end)
                self._extents[end] = tail
                idx = j + 1

    def read(self, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        end = offset + length
        pieces: List[bytes] = []
        pos = offset
        idx = bisect.bisect_right(self._offsets, offset) - 1
        if idx < 0:
            idx = 0
        while pos < end and idx < len(self._offsets):
            off = self._offsets[idx]
            data = self._extents[off]
            ext_end = off + len(data)
            if ext_end <= pos:
                idx += 1
                continue
            if off >= end:
                break
            if off > pos:
                pieces.append(b"\x00" * (off - pos))
                pos = off
            take_start = pos - off
            take_end = min(ext_end, end) - off
            pieces.append(data[take_start:take_end])
            pos = off + take_end
            idx += 1
        if pos < end:
            pieces.append(b"\x00" * (end - pos))
        return b"".join(pieces)

    def discard(self, offset: int, length: int) -> None:
        """TRIM a byte range."""
        self._punch(offset, offset + length)

    def stored_bytes(self) -> int:
        return sum(len(d) for d in self._extents.values())

    def extent_count(self) -> int:
        return len(self._offsets)

    # ------------------------------------------------------------------
    # Snapshots (crash images)
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Tuple[int, bytes]]:
        """The stored extents as ``(offset, bytes)`` pairs, offset
        order.  The public API for copying a store's contents — crash
        twins must not reach into the private extent structures."""
        return [(off, self._extents[off]) for off in self._offsets]

    @classmethod
    def from_snapshot(cls, extents: List[Tuple[int, bytes]]) -> "ExtentStore":
        """Rebuild a store from :meth:`snapshot` output."""
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
        self._base: List[Tuple[int, bytes]] = []
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
        """Start an asynchronous read; data is available on wait()."""
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
        data = self.store.read(offset, length)
        if self.san is not None:
            self.san.on_device_op(self, "read", dur)
        return Completion(done, data, write=False)

    def submit_write(self, offset: int, data: bytes) -> Completion:
        """Start an asynchronous write (data is durable only after flush)."""
        nbytes = self._round(len(data))
        sequential = self._note_stream(
            self._write_streams, offset, offset + len(data)
        )
        dur = self._io_duration(nbytes, write=True, sequential=sequential)
        gc_seconds = 0.0
        if self.ftl is not None:
            # The FTL maps the written pages; if that drops the free
            # pool below the watermark, this write absorbs the GC
            # copy + erase time (the steady-state tail-latency pause).
            gc_seconds = self.ftl.host_write(offset, len(data))
            dur += gc_seconds
        done = self._schedule(dur) if self.charge_time else self.clock.now
        self.stats.record(True, nbytes, sequential, dur, raw_nbytes=len(data))
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
                CacheRecord(self._next_seq(), CacheRecord.WRITE, offset, bytes(data))
            )
        if self.san is not None:
            self.san.on_device_op(self, "write", dur)
        if self.order is not None:
            self.order.on_write(offset, len(data))
        return Completion(done, None, write=True)

    def wait(self, completion: Completion) -> Optional[bytes]:
        """Wait for an async I/O to complete; returns read data."""
        if self.charge_time:
            self.clock.wait_until(completion.done_at)
        return completion.data

    def read(self, offset: int, length: int) -> bytes:
        """Synchronous read."""
        completion = self.submit_read(offset, length)
        data = self.wait(completion)
        if data is None:
            raise IOError(f"read completion carried no data at {offset}")
        return data

    def write(self, offset: int, data: bytes) -> None:
        """Synchronous write (returns when the device accepts the I/O)."""
        completion = self.submit_write(offset, data)
        self.wait(completion)

    def flush(self) -> None:
        """Barrier: wait for all outstanding I/O plus a cache flush.

        In volatile-cache mode this is also the durability boundary:
        the open barrier epoch is sealed, so everything accepted so far
        appears in every subsequent crash image regardless of the plan.
        """
        if not self.charge_time:
            self.stats.record_flush(0.0)
            if self.san is not None:
                self.san.on_device_op(self, "flush", 0.0)
            if self.order is not None:
                self.order.on_flush()
            self._seal_epoch()
            return
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
        self.clock.wait_until(done)
        self._seal_epoch()

    def discard(self, offset: int, length: int) -> None:
        """TRIM a byte range.

        Queued like any other command: it charges the per-command
        overhead on the device timeline (without blocking the caller)
        and unmaps the covered flash pages, so garbage collection on a
        trimmed device finds cheaper victims.
        """
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
                data = data[: torn_tail_sectors * self.profile.sector]
            if data:
                # Charged when the cached write was accepted, not here.
                store.write(rec.offset, data)
