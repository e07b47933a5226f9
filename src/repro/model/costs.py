"""CPU-side cost constants for the simulation.

Every constant is a charge, in **seconds**, applied to the simulated
clock when the corresponding event happens.  The values are calibrated so
that the per-optimization deltas of Table 3 of the paper land in the
right direction and rough magnitude on the simulated Samsung 860
EVO-like device (see ``repro/model/profiles.py``).

Calibration notes (provenance of the main constants):

* ``memcpy_per_byte`` — 1 ns/B (~1 GB/s effective kernel copy including
  cache pollution).  Three to four redundant copies on the BetrFS v0.4
  write path are what pull an 80 GiB sequential write from ~390 MB/s of
  device bandwidth down to ~55 MB/s in the paper.
* ``key_compare`` — ~120 ns for a full-path key comparison.  Full-path
  keys are tens of bytes; the paper notes key comparisons are a major
  CPU cost without lifting.
* ``message_overhead`` — fixed CPU to append/encode one message
  (~1.5 us); dominates tiny-value workloads (4-byte random writes,
  TokuBench).
* ``vmalloc_*`` — vmalloc must edit kernel page tables on every CPU;
  the paper singles this out (§5).  A megabyte-scale vmalloc costs tens
  of microseconds plus a per-page mapping charge; a vmalloc *size
  lookup* (needed by free/realloc without cooperative bookkeeping)
  costs a search of the kernel mapping structures.
* ``journal_commit`` — a jbd2-style commit record plus ordering barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# ----------------------------------------------------------------------
# Flash translation layer costs (device-internal, seconds)
# ----------------------------------------------------------------------
# These are charged on the *device* timeline by the page-mapped FTL
# (repro/device/ftl.py) when garbage collection runs, not on the host
# CPU.  Magnitudes are TLC-NAND-class: a flash page read is tens of
# microseconds, a program a few hundred, a block erase milliseconds.
# A GC cycle relocating V valid pages from a victim block costs
# ``V * (read + program + overhead) + erase`` — the paper's device
# pushes back with exactly these pauses once an SSD reaches steady
# state, which is why update-in-place random writes degrade on aged
# devices while log-structured writes (and TRIM) keep GC cheap.

#: Flash page read during a GC valid-page copy.
FTL_GC_READ_LAT = 60.0e-6
#: Flash page program during a GC valid-page copy.
FTL_GC_PROG_LAT = 250.0e-6
#: Firmware bookkeeping per copied page (mapping + OOB update).
FTL_GC_PAGE_OVERHEAD = 4.0e-6
#: Block erase.
FTL_ERASE_LAT = 2.0e-3


@dataclass
class CostModel:
    """All CPU-side simulated costs, in seconds (per event or per byte)."""

    # ------------------------------------------------------------------
    # Bulk data movement
    # ------------------------------------------------------------------
    #: Cost per byte of copying memory (memcpy / copy_{to,from}_user);
    #: ~3.3 GB/s effective for page-sized kernel copies.
    memcpy_per_byte: float = 0.25e-9
    #: Cost per byte of checksumming (crc32c with hardware assist).
    checksum_per_byte: float = 0.10e-9
    #: Cost per byte of serializing irregular small objects (keys,
    #: messages) into a flat buffer.  Higher than memcpy because of
    #: per-object branching.
    serialize_per_byte: float = 0.8e-9
    #: Cost per byte of compressing a node (disabled by default in the
    #: paper's configuration, kept for the compression ablation).
    compress_per_byte: float = 4.0e-9

    # ------------------------------------------------------------------
    # Key-value engine
    # ------------------------------------------------------------------
    #: One full-path key comparison.
    key_compare: float = 80.0e-9
    #: Fixed cost of creating/appending one message to a node buffer.
    message_overhead: float = 2.0e-6
    #: Fixed cost of applying one message to a basement node.
    message_apply: float = 0.5e-6
    #: Extra fixed cost of evaluating one *range* message against a key
    #: (two comparisons plus interval bookkeeping); charged on top of
    #: ``key_compare``.
    range_check: float = 120.0e-9
    #: One PacMan message-pair comparison during flush compaction
    #: (interval intersection plus consume/merge bookkeeping).
    pacman_compare: float = 550.0e-9
    #: Cost of one B-tree-internal pivot search step.
    pivot_search_step: float = 80.0e-9
    #: Fixed per-query bookkeeping in the tree (cursor setup, MVCC
    #: snapshot, root lock).
    query_overhead: float = 0.8e-6
    #: Fixed cost of initiating one node flush (locking, choosing the
    #: target child, setting up iterators).
    flush_overhead: float = 12.0e-6

    # ------------------------------------------------------------------
    # Memory allocation (kmalloc / vmalloc), §5
    # ------------------------------------------------------------------
    #: kmalloc/kfree of a small object.
    kmalloc: float = 0.25e-6
    #: Fixed cost of a vmalloc call (page-table edit setup).
    vmalloc_base: float = 8.0e-6
    #: Additional vmalloc cost per 4 KiB page mapped.
    vmalloc_per_page: float = 0.30e-6
    #: TLB shootdown broadcast when remapping (charged once per
    #: vmalloc/vfree on an SMP system).
    tlb_shootdown: float = 6.0e-6
    #: Cost of looking up the size of a vmalloc'ed region by searching
    #: the kernel's memory mappings (needed by free/realloc when the
    #: caller does not supply the size — eliminated by cooperative
    #: memory management).
    vmalloc_size_lookup: float = 14.0e-6
    #: Per-message allocator churn in the baseline klibc allocator:
    #: mempool fragmentation, doubling reallocs with re-initialization,
    #: and amortized size lookups (the paper: memory management was at
    #: least 10% of execution time on small-write workloads).  The
    #: cooperative allocator (§5) replaces this with a freelist hit.
    message_alloc_churn: float = 6.5e-6
    message_alloc_coop: float = 2.0e-6
    #: Conditional logging (§3.3): per-create log-section refcount and
    #: dirty-inode bookkeeping.
    cl_pin: float = 8.0e-6

    # ------------------------------------------------------------------
    # VFS / syscall layer
    # ------------------------------------------------------------------
    #: Fixed syscall entry/exit + VFS dispatch.
    syscall_overhead: float = 1.2e-6
    #: Path resolution per component on a dcache hit.
    dcache_hit: float = 0.4e-6
    #: Page-cache lookup/insert for one 4 KiB page.
    page_cache_op: float = 0.15e-6
    #: Instantiating one in-memory inode from a stat value.
    inode_instantiate: float = 1.8e-6
    #: Cost of a CoW page copy trap (fault + copy of 4 KiB is charged
    #: separately via memcpy_per_byte).
    cow_trap: float = 1.0e-6

    # ------------------------------------------------------------------
    # Journaling (ext4 southbound and baseline file systems)
    # ------------------------------------------------------------------
    #: CPU cost of building one journal transaction/commit record.
    journal_commit: float = 18.0e-6
    #: CPU cost of adding one block to a journal transaction.
    journal_block: float = 1.0e-6

    # ------------------------------------------------------------------
    # Scheduling (multi-tenant runs only)
    # ------------------------------------------------------------------
    #: One context switch between client sessions: save/restore register
    #: state plus the cache/TLB disturbance of switching address-space
    #: working sets — a few microseconds on the paper's Xeon-class host.
    #: Charged by ``repro.sched`` only when consecutive dispatches pick
    #: *different* sessions, so a single-session run charges nothing.
    context_switch: float = 3.0e-6

    # ------------------------------------------------------------------
    # Scaling knob
    # ------------------------------------------------------------------
    #: Global multiplier over every CPU charge; 1.0 models the paper's
    #: 3.00 GHz Xeon E3-1220 v6.
    cpu_scale: float = 1.0

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with the global CPU multiplier scaled."""
        return replace(self, cpu_scale=self.cpu_scale * factor)

    # Convenience helpers -------------------------------------------------
    def memcpy(self, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` of memory."""
        return self.cpu_scale * self.memcpy_per_byte * nbytes

    def checksum(self, nbytes: int) -> float:
        """Seconds to checksum ``nbytes``."""
        return self.cpu_scale * self.checksum_per_byte * nbytes

    def serialize(self, nbytes: int) -> float:
        """Seconds to serialize ``nbytes`` of irregular objects."""
        return self.cpu_scale * self.serialize_per_byte * nbytes

    def vmalloc(self, nbytes: int) -> float:
        """Seconds for one vmalloc of ``nbytes`` (mapping + shootdown)."""
        pages = (nbytes + 4095) // 4096
        return self.cpu_scale * (
            self.vmalloc_base + self.vmalloc_per_page * pages + self.tlb_shootdown
        )

    def vfree(self, size_known: bool) -> float:
        """Seconds for one vfree; much cheaper when the size is known."""
        cost = self.tlb_shootdown + self.vmalloc_base * 0.5
        if not size_known:
            cost += self.vmalloc_size_lookup
        return self.cpu_scale * cost


DEFAULT_COSTS = CostModel()
