"""Unit tests for the simulated block device and extent store."""

import hashlib
import random

import pytest

from repro.device.block import BlockDevice, ExtentStore
from repro.device.clock import SimClock
from repro.harness.mt import device_sha256
from repro.model.profiles import COMMODITY_HDD, COMMODITY_SSD, NULL_DEVICE


class TestExtentStore:
    def test_roundtrip(self):
        store = ExtentStore()
        store.write(0, b"hello")
        assert store.read(0, 5) == b"hello"

    def test_holes_read_as_zero(self):
        store = ExtentStore()
        store.write(10, b"xy")
        assert store.read(8, 6) == b"\x00\x00xy\x00\x00"

    def test_overwrite_exact(self):
        store = ExtentStore()
        store.write(0, b"aaaa")
        store.write(0, b"bbbb")
        assert store.read(0, 4) == b"bbbb"

    def test_overwrite_partial_head(self):
        store = ExtentStore()
        store.write(0, b"aaaaaaaa")
        store.write(0, b"bb")
        assert store.read(0, 8) == b"bbaaaaaa"

    def test_overwrite_partial_tail(self):
        store = ExtentStore()
        store.write(0, b"aaaaaaaa")
        store.write(6, b"bb")
        assert store.read(0, 8) == b"aaaaaabb"

    def test_overwrite_middle_splits(self):
        store = ExtentStore()
        store.write(0, b"aaaaaaaa")
        store.write(3, b"bb")
        assert store.read(0, 8) == b"aaabbaaa"
        assert store.extent_count() == 3

    def test_write_spanning_multiple_extents(self):
        store = ExtentStore()
        store.write(0, b"aa")
        store.write(4, b"bb")
        store.write(8, b"cc")
        store.write(1, b"zzzzzzzz")
        assert store.read(0, 10) == b"azzzzzzzzc"

    def test_read_assembles_across_extents(self):
        store = ExtentStore()
        store.write(0, b"ab")
        store.write(2, b"cd")
        assert store.read(0, 4) == b"abcd"

    def test_discard(self):
        store = ExtentStore()
        store.write(0, b"abcdef")
        store.discard(2, 2)
        assert store.read(0, 6) == b"ab\x00\x00ef"

    def test_stored_bytes(self):
        store = ExtentStore()
        store.write(0, b"abc")
        store.write(100, b"de")
        assert store.stored_bytes() == 5

    def test_empty_read(self):
        store = ExtentStore()
        assert store.read(5, 0) == b""
        assert store.read(0, 4) == b"\x00" * 4


class TestSegmentStoreAgainstAFlatOracle:
    """A seeded run of overlapping writes — plain ``bytes`` and segment
    tuples — and discards, many of them cutting a stored segment, each
    step checked against a flat ``bytearray`` (the bytes) and a per-byte
    writer map (the extent boundaries, which the device hash sees)."""

    SPAN = 4096

    @staticmethod
    def _payload(rng, n):
        data = bytes(rng.randrange(256) for _ in range(n))
        if rng.random() < 0.3:
            return data
        cuts = sorted(rng.randrange(n + 1) for _ in range(rng.randrange(1, 6)))
        return tuple(data[a:b] for a, b in zip([0, *cuts], [*cuts, n]))

    @staticmethod
    def _extents(owner):
        """(offset, length) of each run of bytes one write still owns."""
        runs, start = [], None
        for pos, who in enumerate([*owner, None]):
            if start is not None and who != owner[start]:
                runs.append((start, pos - start))
                start = None
            if start is None and who is not None:
                start = pos
        return runs

    def _check(self, rng, store, oracle, owner):
        snap = store.snapshot()
        assert [(off, sum(map(len, segs))) for off, segs in snap] == self._extents(owner)
        assert all(type(seg) is bytes for _off, segs in snap for seg in segs)
        assert store.stored_bytes() == sum(who is not None for who in owner)
        for _ in range(4):
            at = rng.randrange(self.SPAN)
            n = rng.randrange(self.SPAN - at + 1)
            want = bytes(oracle[at : at + n])
            segments = store.read_segments(at, n)
            assert type(segments) is tuple and all(type(seg) is bytes for seg in segments)
            assert b"".join(segments) == want
            assert store.read(at, n) == want

    def test_matches_the_oracle_step_by_step(self):
        rng = random.Random(28)
        store, oracle, owner = ExtentStore(), bytearray(self.SPAN), [None] * self.SPAN
        for step in range(300):
            at = rng.randrange(self.SPAN - 1)
            n = rng.randrange(1, min(700, self.SPAN - at) + 1)
            if rng.random() < 0.2:
                store.discard(at, n)
                oracle[at : at + n] = bytes(n)
                owner[at : at + n] = [None] * n
            else:
                payload = self._payload(rng, n)
                store.write(at, payload)
                oracle[at : at + n] = b"".join(payload) if isinstance(payload, tuple) else payload
                owner[at : at + n] = [step] * n
            self._check(rng, store, oracle, owner)
        # A crash twin shares the stored segments and reads the same.
        twin = ExtentStore.from_snapshot(store.snapshot())
        assert twin.snapshot() == store.snapshot()
        assert all(
            a is b
            for (_o, segs), (_t, twin_segs) in zip(store.snapshot(), twin.snapshot())
            for a, b in zip(segs, twin_segs)
        )
        assert twin.read(0, self.SPAN) == bytes(oracle)
        # The device hash is the hash of every extent joined.
        dev = BlockDevice(SimClock(), NULL_DEVICE)
        dev.store = store
        h = hashlib.sha256()
        for off, n in self._extents(owner):
            h.update(off.to_bytes(8, "little"))
            h.update(bytes(oracle[off : off + n]))
        assert device_sha256(dev) == h.hexdigest()

    def test_a_written_segment_is_kept_and_read_back_by_reference(self):
        store = ExtentStore()
        head, page, tail = b"h" * 100, b"p" * 4096, b"t" * 50
        store.write(1000, (head, page, tail))
        ((off, segs),) = store.snapshot()
        assert off == 1000 and segs[0] is head and segs[1] is page and segs[2] is tail
        assert store.read_segments(1100, 4096)[0] is page
        # Overwrites that cut the head and the tail leave the page.
        store.write(1020, b"x" * 60)
        store.write(5206, b"y" * 20)
        assert any(seg is page for _off, segs in store.snapshot() for seg in segs)
        assert store.read(1000, 4246) == (
            b"h" * 20 + b"x" * 60 + b"h" * 20 + page + b"t" * 10 + b"y" * 20 + b"t" * 20
        )


def _held(profile=COMMODITY_SSD):
    """A device whose clock holds waits, as under a scheduler."""
    clock = SimClock()
    clock.holds = True
    return BlockDevice(clock, profile), clock


def _timeline(dev, clock):
    return (clock.now, clock.io_wait, clock.cpu_time, dev.busy_until)


class TestHolds:
    """A held wait is realized by the next charge, wait or device
    command of the same call, exactly as the wait would have been."""

    def test_a_wait_holds_instead_of_advancing(self):
        dev, clock = _held()
        dev.write(0, b"x" * 4096)
        assert clock.now == 0.0 and clock.hold == dev.busy_until > 0.0

    @pytest.mark.parametrize(
        "then",
        [
            lambda dev, clock: clock.cpu(1e-6),
            lambda dev, clock: dev.wait(dev.submit_read(1 << 20, 4096)),
            lambda dev, clock: dev.submit_write(1 << 24, b"w" * 4096),
            lambda dev, clock: dev.discard(1 << 26, 4096),
            lambda dev, clock: dev.read(1 << 20, 4096),
            lambda dev, clock: clock.wait_for(1e-4),
            lambda dev, clock: dev.flush(),
        ],
        ids=["charge", "wait", "write", "discard", "read", "wait_for", "flush"],
    )
    def test_next_step_realizes_the_hold_first(self, then):
        """The hold (a write, then a backoff that outlasts the device's
        queue) must be over before ``then`` reads the clock."""
        plain = BlockDevice(SimClock(), COMMODITY_SSD)
        held, clock = _held()
        for dev in (plain, held):
            dev.write(0, b"x" * (64 << 10))
            dev.clock.wait_for(1e-3)
            then(dev, dev.clock)
        clock.realize()
        assert _timeline(held, clock) == _timeline(plain, plain.clock)
        assert held.stats.flushes == plain.stats.flushes

    def test_two_barriers_in_one_call_are_two_flushes(self):
        plain = BlockDevice(SimClock(), COMMODITY_SSD)
        held, clock = _held()
        for dev in (plain, held):
            dev.write(0, b"x" * 4096)
            dev.flush()
            dev.flush()
        clock.realize()
        assert held.stats.flushes == plain.stats.flushes == 2
        assert _timeline(held, clock) == _timeline(plain, plain.clock)

    def test_a_busy_device_defers_the_flush_to_its_group(self):
        dev, clock = _held()
        dev.enable_volatile_cache()
        dev.write(0, b"x" * 4096)
        dev.flush()
        assert dev.stats.flushes == 0 and clock.group.done is None
        assert dev.sealed_epochs() == 0
        clock.realize()
        assert dev.stats.flushes == 1 and clock.group is None
        assert dev.sealed_epochs() == 1 and clock.now == dev.busy_until


class TestBlockDeviceTiming:
    def make(self, profile=COMMODITY_SSD):
        clock = SimClock()
        return BlockDevice(clock, profile), clock

    def test_sequential_write_is_bandwidth_bound(self):
        dev, clock = self.make()
        data = b"x" * (1 << 20)
        for i in range(8):
            dev.write(i * len(data), data)
        # 8 MiB at ~502 MB/s (inside the write cache) ~ 16.7 ms.
        assert 0.010 < clock.now < 0.030

    def test_random_writes_pay_latency(self):
        dev, clock = self.make()
        for i in range(10):
            dev.write(i * (1 << 24), b"y" * 4096)
        assert clock.now >= 10 * COMMODITY_SSD.rand_write_lat

    def test_write_cache_cliff(self):
        from repro.model.profiles import scaled_profile

        profile = scaled_profile(COMMODITY_SSD, 1.0 / 4096.0)  # ~3 MiB cache
        dev, clock = self.make(profile)
        chunk = b"z" * (1 << 20)
        t0 = clock.now
        dev.write(0, chunk)
        fast = clock.now - t0
        # The cache fills at the *difference* between burst and drain
        # rates, so saturating ~3 MiB of cache takes ~15 MiB of stream.
        for i in range(1, 24):
            dev.write(i * len(chunk), chunk)
        t0 = clock.now
        dev.write(24 * len(chunk), chunk)
        slow = clock.now - t0
        assert slow > fast

    def test_multi_stream_sequential_detection(self):
        dev, clock = self.make()
        # Two interleaved append streams must both count as sequential.
        a, b = 0, 1 << 30
        for i in range(4):
            dev.write(a, b"p" * 4096)
            a += 4096
            dev.write(b, b"q" * 4096)
            b += 4096
        assert dev.stats.seq_writes >= 6  # all but the two stream heads

    def test_async_read_overlaps_cpu(self):
        dev, clock = self.make()
        dev.write(0, b"d" * (4 << 20))
        completion = dev.submit_read(0, 4 << 20)
        # CPU work while the device transfers.
        clock.cpu(0.004)
        t0 = clock.now
        dev.wait(completion)
        stall = clock.now - t0
        # Most of the ~7 ms transfer was hidden behind the 4 ms of CPU.
        assert stall < 0.006

    def test_flush_advances_clock(self):
        dev, clock = self.make()
        dev.write(0, b"x" * 4096)
        t0 = clock.now
        dev.flush()
        assert clock.now > t0
        assert dev.stats.flushes == 1

    def test_null_device_is_free(self):
        dev, clock = self.make(NULL_DEVICE)
        dev.write(0, b"x" * (1 << 20))
        dev.read(0, 1 << 20)
        assert clock.now < 1e-9

    def test_hdd_seeks_dominate(self):
        dev, clock = self.make(COMMODITY_HDD)
        for i in range(5):
            dev.write(i * (1 << 26), b"x" * 4096)
        assert clock.now >= 5 * COMMODITY_HDD.rand_write_lat

    def test_crash_image_preserves_bytes(self):
        dev, _clock = self.make()
        dev.write(123, b"persisted")
        twin = dev.crash_image()
        assert twin.store.read(123, 9) == b"persisted"
        # The image is independent.
        twin.store.write(123, b"xxxxxxxxx")
        assert dev.store.read(123, 9) == b"persisted"

    def test_stats_accounting(self):
        dev, _ = self.make()
        dev.write(0, b"x" * 4096)
        dev.read(0, 4096)
        s = dev.stats
        assert s.writes == 1 and s.reads == 1
        assert s.bytes_written == 4096 and s.bytes_read == 4096
        snap = s.snapshot()
        dev.read(4096, 4096)
        delta = s.delta(snap)
        assert delta.reads == 1 and delta.writes == 0
