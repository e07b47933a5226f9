"""A jbd2-style journal model.

Used by the stacked-ext4 southbound (where it produces the paper's
*double journaling*) and by the baseline file systems.  The journal
occupies a fixed region of the device; transactions append descriptor +
metadata blocks and a commit record, then issue a flush barrier.
"""

from __future__ import annotations

from typing import Dict

from repro.device.block import BlockDevice
from repro.model.costs import CostModel


class Journal:
    """Sequential journal with commit barriers in a fixed device region."""

    def __init__(
        self,
        device: BlockDevice,
        costs: CostModel,
        region_offset: int,
        region_size: int,
    ) -> None:
        self.device = device
        self.costs = costs
        self.region_offset = region_offset
        self.region_size = region_size
        self.head = 0
        self.commits = 0
        self.blocks_logged = 0
        self._txn_blocks = 0
        #: Commit padding by length: the device store keeps the object
        #: it is given until the region wraps, so every commit of one
        #: length shares one immutable buffer of zeros.
        self._zeros: Dict[int, bytes] = {}

    def _append(self, data: bytes) -> None:
        if self.head + len(data) > self.region_size:
            # Circular wrap; checkpointing is implicit.  The whole
            # region is about to be rewritten — TRIM it so the FTL
            # treats the stale journal pages as dead instead of
            # relocating them during garbage collection.
            self.device.discard(self.region_offset, self.head)
            self.head = 0
        self.device.write(self.region_offset + self.head, data)
        self.head += len(data)

    def log_block(self) -> None:
        """Add one metadata block to the running transaction."""
        self._txn_blocks += 1
        self.blocks_logged += 1
        self.device.clock.cpu(self.costs.journal_block)

    def commit(self, durable: bool = True) -> None:
        """Commit the running transaction (descriptor + blocks + commit).

        ``durable`` commits issue a device flush barrier (fsync path);
        periodic background commits do not wait.
        """
        self.commits += 1
        self.device.clock.cpu(self.costs.journal_commit)
        # Descriptor block + logged metadata blocks + commit record.
        length = 4096 * (max(1, self._txn_blocks) + 2)
        zeros = self._zeros.get(length)
        if zeros is None:
            zeros = self._zeros[length] = bytes(length)
        self._append(zeros)
        self._txn_blocks = 0
        if durable:
            self.device.flush()
