"""The southbound file API used by the B-epsilon-tree.

This mirrors the klibc shim of the paper: the tree is written against a
small POSIX-style file API (named files, offset reads/writes, fsync)
and the substrate decides how those map to the block device.

All writes are asynchronous at the device level; ``sync`` provides the
durability barrier.  ``byref=True`` writes declare that the caller's
buffer can be used directly for DMA (scatter-gather) so the substrate
must not charge a copy — only SFL honours this (§3, §6); ext4 cannot
(direct I/O on kernel addresses is rejected by stock kernels, as the
paper notes).  A write's payload is one buffer or a node's segments
(:data:`repro.device.block.Segments`); :meth:`Southbound.read_segments`
and :meth:`Southbound.finish_read` hand a node's reader the segments
back, :meth:`Southbound.read` one joined buffer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.device.block import BlockDevice, Completion, Payload, Segments
from repro.device.clock import SimClock
from repro.model.costs import CostModel


class Southbound:
    """Abstract southbound storage substrate."""

    def __init__(self, device: BlockDevice, costs: CostModel) -> None:
        self.device = device
        self.costs = costs
        self.clock: SimClock = device.clock
        self._pending: Dict[str, List[Completion]] = {}
        #: Per-file byte accounting (pre-rounding), used by the
        #: observability layer to check cross-layer conservation:
        #: what the WAL/trees report writing must equal what their
        #: southbound files received.
        self.file_bytes_written: Dict[str, int] = {}
        self.file_bytes_read: Dict[str, int] = {}

    def _account_write(self, name: str, nbytes: int) -> None:
        self.file_bytes_written[name] = self.file_bytes_written.get(name, 0) + nbytes

    def _account_read(self, name: str, nbytes: int) -> None:
        self.file_bytes_read[name] = self.file_bytes_read.get(name, 0) + nbytes

    # ------------------------------------------------------------------
    # API used by the tree
    # ------------------------------------------------------------------
    def create(self, name: str, size: int) -> None:
        """Create/fallocate a file of ``size`` bytes."""
        raise NotImplementedError

    def file_size(self, name: str) -> int:
        raise NotImplementedError

    def write(self, name: str, offset: int, data: Payload, byref: bool = False) -> None:
        """Asynchronous write at ``offset``."""
        raise NotImplementedError

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Synchronous read."""
        raise NotImplementedError

    def read_segments(self, name: str, offset: int, length: int) -> Segments:
        """Synchronous read, as the segments the device holds."""
        raise NotImplementedError

    def prefetch(self, name: str, offset: int, length: int) -> Completion:
        """Start an asynchronous read; pair with :meth:`finish_read`."""
        raise NotImplementedError

    def finish_read(self, completion: Completion) -> Segments:
        """Wait for a prefetch and return its segments."""
        data = self.device.wait(completion)
        if data is None:
            raise IOError("prefetch completion carried no data")
        return data

    def sync(self, name: str) -> None:
        """fsync: make all writes to ``name`` durable."""
        raise NotImplementedError

    def discard(self, name: str, offset: int, length: int) -> None:
        """TRIM a byte range of ``name`` down to the device.

        Called by the free paths (checkpoint extent reclamation, a
        superseded node copy no checkpoint referenced, log truncation)
        so the FTL underneath learns which pages hold dead data.
        Substrates map the file range to device offsets.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _track(self, name: str, completion: Completion) -> None:
        self._pending.setdefault(name, []).append(completion)

    def _wait_pending(self, name: str) -> None:
        for completion in self._pending.pop(name, []):
            self.device.wait(completion)

    def describe(self) -> str:
        return type(self).__name__
