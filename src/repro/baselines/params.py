"""Per-file-system model parameters for the baselines.

Each constant is calibrated against Table 1 of the paper (details in
results/EXPERIMENTS.md).  The parameters capture the *design class* of each
file system:

* ``ext4`` / ``xfs`` — update-in-place, extent-based, metadata journal
  (ordered mode).  Deep metadata paths (ext4's htree + inode tables)
  make cold traversals expensive; random writes are honest in-place
  random I/O.
* ``btrfs`` — copy-on-write B-tree; random writes pay extent-tree CoW
  updates and data checksumming.
* ``f2fs`` — log-structured for flash, but with adaptive in-place
  updates (IPU) for buffered random overwrites on a mostly-empty SATA
  device, which is why the paper measures it near ext4 on random
  writes.
* ``zfs`` — CoW with heavyweight checksummed block pointers and ZIL;
  slowest random writes, but excellent metadata/data locality on scans
  (strong ARC prefetch), which the paper's grep/find columns show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class BaselineParams:
    """Model constants for one baseline file system."""

    name: str
    #: Random metadata-block reads on a cold lookup (dentry + inode).
    lookup_cold_reads: int
    #: Extra cold random reads to map a file's data on first access
    #: (extent tree / indirect blocks / block pointers).
    open_cold_reads: int
    #: Extra CPU+device charge per *random* page write-back, seconds
    #: (journal/extent/NAT/checksum bookkeeping beyond the raw I/O).
    random_page_penalty: float
    #: Extra charge per sequentially written MiB (allocator, extent
    #: tree growth, segment summaries), seconds per MiB.
    seq_write_overhead_per_mib: float
    #: Extra charge per sequentially read MiB, seconds per MiB.
    seq_read_overhead_per_mib: float
    #: Whether data blocks are checksummed (CPU per byte on I/O).
    data_checksum: bool
    #: Charge per creation (directory insert + inode init + journal).
    create_cost: float
    #: Charge per unlink beyond the journal (bitmap/extent frees).
    unlink_cost: float
    #: Journal/transaction commit on fsync.
    fsync_commits: bool
    #: Serial stall per dirty-throttling cycle (allocation transactions,
    #: commit interlock, checksum trees).  Calibrated so streaming
    #: writes land at the paper's fraction of device bandwidth.
    writeback_cycle_penalty: float = 2.3e-3
    #: Directory entries per 4 KiB directory block (cold readdir I/O).
    dirents_per_block: int = 100
    #: Fraction of a directory's files whose data is *not* contiguous
    #: with the scan order on a cold sequential directory scan (grep):
    #: these pay a random read each.
    scan_discontiguity: float = 0.5


BASELINES: Dict[str, BaselineParams] = {
    "ext4": BaselineParams(
        name="ext4",
        lookup_cold_reads=2,
        open_cold_reads=1,
        random_page_penalty=95e-6,
        seq_write_overhead_per_mib=0.25e-3,
        seq_read_overhead_per_mib=0.11e-3,
        data_checksum=False,
        create_cost=15e-6,
        unlink_cost=8e-6,
        fsync_commits=True,
        writeback_cycle_penalty=2.3e-3,
        scan_discontiguity=0.9,
    ),
    "btrfs": BaselineParams(
        name="btrfs",
        lookup_cold_reads=1,
        open_cold_reads=0,
        random_page_penalty=165e-6,
        seq_write_overhead_per_mib=0.15e-3,
        seq_read_overhead_per_mib=0.0,
        data_checksum=True,
        create_cost=120e-6,
        unlink_cost=14e-6,
        fsync_commits=True,
        writeback_cycle_penalty=1.8e-3,
        scan_discontiguity=0.78,
    ),
    "xfs": BaselineParams(
        name="xfs",
        lookup_cold_reads=1,
        open_cold_reads=0,
        random_page_penalty=55e-6,
        seq_write_overhead_per_mib=0.26e-3,
        seq_read_overhead_per_mib=0.13e-3,
        data_checksum=False,
        create_cost=165e-6,
        unlink_cost=17e-6,
        fsync_commits=True,
        writeback_cycle_penalty=2.3e-3,
        scan_discontiguity=1.0,
    ),
    "f2fs": BaselineParams(
        name="f2fs",
        lookup_cold_reads=1,
        open_cold_reads=0,
        random_page_penalty=100e-6,
        seq_write_overhead_per_mib=0.22e-3,
        seq_read_overhead_per_mib=0.14e-3,
        data_checksum=False,
        create_cost=155e-6,
        unlink_cost=13e-6,
        fsync_commits=True,
        writeback_cycle_penalty=2.1e-3,
        scan_discontiguity=0.80,
    ),
    "zfs": BaselineParams(
        name="zfs",
        lookup_cold_reads=1,
        open_cold_reads=0,
        random_page_penalty=360e-6,
        seq_write_overhead_per_mib=0.42e-3,
        seq_read_overhead_per_mib=0.05e-3,
        data_checksum=True,
        create_cost=18e-6,
        unlink_cost=22e-6,
        fsync_commits=True,
        writeback_cycle_penalty=3.4e-3,
        scan_discontiguity=0.04,
    ),
}
