"""A jbd2-style journal model.

Used by the stacked-ext4 southbound (where it produces the paper's
*double journaling*) and by the baseline file systems.  The journal
occupies a fixed region of the device; transactions append descriptor +
metadata blocks and a commit record, then issue a flush barrier.
"""

from __future__ import annotations

from repro.device.block import BlockDevice
from repro.model.costs import CostModel

#: One journal block of zeros.  A commit's padding is this block
#: repeated — a segment tuple the device store keeps by reference — so
#: every commit of every journal shares these 4 KiB.
ZERO_BLOCK = bytes(4096)


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

    def _append(self, blocks: int) -> None:
        """Write ``blocks`` journal blocks at the head (their contents
        are not modelled: zeros)."""
        length = len(ZERO_BLOCK) * blocks
        if self.head + length > self.region_size:
            # Circular wrap; checkpointing is implicit.  The whole
            # region is about to be rewritten — TRIM it so the FTL
            # treats the stale journal pages as dead instead of
            # relocating them during garbage collection.
            self.device.discard(self.region_offset, self.head)
            self.head = 0
        self.device.write(self.region_offset + self.head, (ZERO_BLOCK,) * blocks)
        self.head += length

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
        self._append(max(1, self._txn_blocks) + 2)
        self._txn_blocks = 0
        if durable:
            self.device.flush()
