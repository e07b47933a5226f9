"""Device performance profiles.

A :class:`DeviceProfile` captures everything the block-device simulator
needs to charge time for an I/O: sequential bandwidths, random-access
latencies, and (for SSDs) the SLC-style write-cache cliff the paper
measured on its Samsung 860 EVO ("502 MB/s ... drops to 392 MB/s when
the data size is larger than 12 GB").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from repro.check.errors import require
from typing import Optional

from repro.model.costs import (
    FTL_ERASE_LAT,
    FTL_GC_PAGE_OVERHEAD,
    FTL_GC_PROG_LAT,
    FTL_GC_READ_LAT,
)

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class FTLGeometry:
    """Flash geometry and internal latencies of a page-mapped FTL.

    Attached to a :class:`DeviceProfile`; ``None`` means the device has
    no FTL model (HDDs, the null device).  The FTL charges time only
    when garbage collection runs — a fresh device with free blocks
    behaves exactly like the bare bandwidth/latency profile, so the
    steady-state effects (write amplification, GC tail latency) appear
    only once the device has been filled past its over-provisioning.
    """

    #: Flash page size in bytes (the mapping granularity).
    page_size: int = 4096
    #: Pages per erase block.
    pages_per_block: int = 64
    #: Physical space beyond the advertised capacity, as a fraction
    #: (7% is typical for consumer drives: 256 GB of flash sold as
    #: 250 GB... actually as 238 usable GiB).
    op_ratio: float = 0.07
    #: Flash page read during a GC copy, seconds.
    read_lat: float = FTL_GC_READ_LAT
    #: Flash page program during a GC copy, seconds.
    prog_lat: float = FTL_GC_PROG_LAT
    #: Per-copied-page firmware bookkeeping, seconds.
    gc_page_overhead: float = FTL_GC_PAGE_OVERHEAD
    #: Block erase, seconds.
    erase_lat: float = FTL_ERASE_LAT
    #: GC starts when free blocks drop below this fraction of all
    #: physical blocks (never below 2 blocks).
    gc_watermark: float = 0.02


@dataclass(frozen=True)
class DeviceProfile:
    """Performance characteristics of a simulated block device."""

    name: str
    #: Usable capacity in bytes.
    capacity: int
    #: Peak sequential read bandwidth, bytes/second.
    seq_read_bw: float
    #: Peak sequential write bandwidth (inside the write cache), B/s.
    seq_write_bw: float
    #: Sustained sequential write bandwidth once the write cache is
    #: exhausted, B/s.  Equal to ``seq_write_bw`` for devices without a
    #: write-cache cliff.
    sustained_write_bw: float
    #: Size of the internal write cache in bytes (0 = none).
    write_cache: int
    #: Latency of a random (non-sequential) read, seconds.  Charged once
    #: per I/O in addition to the transfer time.
    rand_read_lat: float
    #: Latency of a random write, seconds.
    rand_write_lat: float
    #: Extra latency of a flush/FUA barrier (cache flush), seconds.
    flush_lat: float
    #: Fixed per-I/O command overhead (submission + completion
    #: interrupt), seconds.  Charged on every request, sequential or
    #: not.
    cmd_overhead: float
    #: Logical sector size in bytes; all I/O is rounded up to this.
    sector: int = 4096
    #: Flash translation layer geometry (None = no FTL simulation).
    ftl: Optional[FTLGeometry] = None

    def transfer_time(self, nbytes: int, write: bool, cache_exceeded: bool) -> float:
        """Pure transfer time of ``nbytes`` at the applicable bandwidth."""
        if write:
            bw = self.sustained_write_bw if cache_exceeded else self.seq_write_bw
        else:
            bw = self.seq_read_bw
        return nbytes / bw


#: The paper's SSD testbed: 250 GB Samsung 860 EVO.  Peak measured
#: sequential read 567 MB/s; write 502 MB/s dropping to 392 MB/s beyond
#: the ~12 GB write cache.  Random 4 KiB latencies are set so that an
#: update-in-place file system lands near the paper's ~16 MB/s random
#: 4 KiB write throughput once journaling overheads are added.
COMMODITY_SSD = DeviceProfile(
    name="samsung-860-evo-250g",
    capacity=250 * GIB,
    seq_read_bw=567e6,
    seq_write_bw=502e6,
    sustained_write_bw=392e6,
    write_cache=12 * 10**9,
    rand_read_lat=90e-6,
    rand_write_lat=140e-6,
    flush_lat=400e-6,
    cmd_overhead=8e-6,
    ftl=FTLGeometry(),
)

#: The paper's boot HDD: 500 GB Toshiba DT01ACA0 (7200 RPM class).
COMMODITY_HDD = DeviceProfile(
    name="toshiba-dt01aca0-500g",
    capacity=500 * GIB,
    seq_read_bw=150e6,
    seq_write_bw=150e6,
    sustained_write_bw=150e6,
    write_cache=0,
    rand_read_lat=8e-3,
    rand_write_lat=8e-3,
    flush_lat=8e-3,
    cmd_overhead=20e-6,
)

#: An infinitely fast device — useful in unit tests that only care about
#: functional behaviour, not timing.
NULL_DEVICE = DeviceProfile(
    name="null",
    capacity=1 << 50,
    seq_read_bw=1e18,
    seq_write_bw=1e18,
    sustained_write_bw=1e18,
    write_cache=0,
    rand_read_lat=0.0,
    rand_write_lat=0.0,
    flush_lat=0.0,
    cmd_overhead=0.0,
)


def scaled_profile(base: DeviceProfile, cache_scale: float) -> DeviceProfile:
    """A profile with the internal write cache scaled down.

    Benchmark workloads are ~1/2500 of the paper's byte counts; the
    12 GB SLC-style write cache must shrink with them, or every scaled
    write fits in the cache and the sustained-bandwidth cliff the paper
    measured ("drops to 392 MB/s when the data size is larger than
    12 GB") never appears.
    """
    return replace(base, write_cache=int(base.write_cache * cache_scale))


def small_ftl_profile(
    capacity: int = 48 * MIB,
    base: DeviceProfile = COMMODITY_SSD,
    op_ratio: float = 0.07,
) -> DeviceProfile:
    """A small-capacity FTL-enabled profile for aging experiments.

    Steady-state SSD effects need the device filled past its
    over-provisioning; at the paper's 250 GB that is impractical in a
    scaled simulation, so aging workloads and the FTL tests run on a
    capacity small enough to fill (and to keep the FTL's per-block
    structures cheap).  The write cache shrinks with the capacity, like
    :func:`scaled_profile`.
    """
    require(base.ftl is not None, "base profile has no FTL geometry")
    return replace(
        base,
        name=f"{base.name}-ftl-{capacity >> 20}m",
        capacity=capacity,
        write_cache=min(base.write_cache, capacity // 8),
        ftl=replace(base.ftl, op_ratio=op_ratio),
    )


#: The benchmark profile: 860 EVO with the write cache scaled 1/2560.
COMMODITY_SSD_SCALED = scaled_profile(COMMODITY_SSD, 1.0 / 2560.0)
