"""The Simple File Layer (paper §3.1).

A storage backend providing exactly the abstraction the B-epsilon-tree
needs: a fixed set of named files, each a single contiguous extent in a
statically partitioned device layout (Table 2):

    SuperBlock (8 MB, abstracting 8 small metadata files) | Log |
    Meta Index | Data Index

Key properties, each fixing a v0.4 bottleneck:

* **Direct I/O** — reads and writes accept references to the caller's
  buffers/page frames; no copy, no double buffering.
* **No journal** — metadata is immutable (static partition), so crash
  consistency is entirely the tree's WAL + checkpoints; ``sync`` is
  just a completion wait plus a device cache flush.
* **Asynchronous interface** — callers may prefetch entire node-sized
  extents, enabling the §3.2 tree-level read-ahead to overlap device
  transfer with tree CPU work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.device.block import BlockDevice, Completion, Payload, Segments, payload_len
from repro.model.costs import CostModel
from repro.storage.filelayer import Southbound

MIB = 1024 * 1024

#: The SFL's fixed layout, as fractions of the managed region.  The
#: superblock region abstracts the 9 small metadata files ("eight
#: logical files" in Table 2 plus the cleanliness flag).
SUPERBLOCK_SIZE = 8 * MIB


@dataclass(frozen=True)
class ImageLayout:
    """SFL static partition offsets for one carved device/image.

    The single source of truth for where each region starts: the SFL
    carves from it, the offline fsck walks with it, and crash/failure
    tests address regions through it instead of hard-coded byte
    offsets.  ``capacity`` bounds the trailing ``data.db`` region (0 is
    legal when only the bases matter).
    """

    log_size: int
    meta_size: int
    capacity: int = 0
    #: Device offset of this volume's slot 0.  Non-zero when several
    #: SFL volumes share one device (``repro.shard``): volume *i* is
    #: carved at ``i * volume_bytes`` and owns ``[base, capacity)``.
    base: int = 0

    @property
    def log_base(self) -> int:
        return self.base + SUPERBLOCK_SIZE

    @property
    def meta_base(self) -> int:
        return self.base + SUPERBLOCK_SIZE + self.log_size

    @property
    def data_base(self) -> int:
        return self.meta_base + self.meta_size

    @property
    def data_size(self) -> int:
        return self.capacity - self.data_base

    def file_base(self, name: str) -> int:
        return {
            "superblock": self.base,
            "log": self.log_base,
            "meta.db": self.meta_base,
            "data.db": self.data_base,
        }[name]

    def tree_region(self, index: int) -> Tuple[int, int]:
        """(base, size) of the ``index``-th tree file (meta, data)."""
        if index == 0:
            return self.meta_base, self.meta_size
        return self.data_base, self.data_size


class SimpleFileLayer(Southbound):
    """Static-layout, direct-I/O southbound (BetrFS v0.6)."""

    def __init__(
        self,
        device: BlockDevice,
        costs: CostModel,
        log_size: int = 64 * MIB,
        meta_size: int = 256 * MIB,
        base: int = 0,
        capacity: int = 0,
    ) -> None:
        super().__init__(device, costs)
        #: Region offsets come from the shared :class:`ImageLayout`, so
        #: the carve, the offline fsck, and the failure tests can never
        #: disagree about where a region starts.  ``base``/``capacity``
        #: carve a sub-volume of the device (``repro.shard``); the
        #: defaults keep the whole-device single-volume layout.
        self.layout = ImageLayout(
            log_size=log_size,
            meta_size=meta_size,
            capacity=capacity or device.profile.capacity,
            base=base,
        )
        self._files: Dict[str, Tuple[int, int]] = {
            "superblock": (self.layout.base, SUPERBLOCK_SIZE),
            "log": (self.layout.log_base, log_size),
            "meta.db": (self.layout.meta_base, meta_size),
            "data.db": (self.layout.data_base, self.layout.data_size),
        }

    # ------------------------------------------------------------------
    def create(self, name: str, size: int) -> None:
        """SFL files are pre-carved; creation validates the fit."""
        if name not in self._files:
            raise ValueError(
                f"SFL provides a fixed set of files; {name!r} is not one of them"
            )
        base, cap = self._files[name]
        if size > cap:
            raise ValueError(f"{name}: requested {size} > region {cap}")

    def file_size(self, name: str) -> int:
        return self._files[name][1]

    def _map(self, name: str, offset: int, length: int) -> int:
        base, size = self._files[name]
        if offset + length > size:
            raise ValueError(f"I/O beyond region of {name}")
        return base + offset

    # ------------------------------------------------------------------
    def write(self, name: str, offset: int, data: Payload, byref: bool = False) -> None:
        length = payload_len(data)
        if not byref:
            # The caller handed us a buffer it will reuse; one copy.
            self.clock.cpu(self.costs.memcpy(length))
        dev_off = self._map(name, offset, length)
        self._account_write(name, length)
        # Direct I/O: a node's segments (its pages among them) go to
        # the device by reference.
        completion = self.device.submit_write(dev_off, data)
        self._track(name, completion)

    def read(self, name: str, offset: int, length: int) -> bytes:
        dev_off = self._map(name, offset, length)
        self._account_read(name, length)
        # Direct I/O into the caller's pre-allocated buffer: no copy.
        return self.device.read(dev_off, length)

    def read_segments(self, name: str, offset: int, length: int) -> Segments:
        dev_off = self._map(name, offset, length)
        self._account_read(name, length)
        return self.device.read_segments(dev_off, length)

    def prefetch(self, name: str, offset: int, length: int) -> Completion:
        dev_off = self._map(name, offset, length)
        self._account_read(name, length)
        return self.device.submit_read(dev_off, length)

    def sync(self, name: str) -> None:
        """Synchronous-write guarantee only; no journaling (§3.1)."""
        self._wait_pending(name)
        self.device.flush()

    def discard(self, name: str, offset: int, length: int) -> None:
        """Static layout makes TRIM a straight range mapping."""
        if length <= 0:
            return
        dev_off = self._map(name, offset, length)
        self.device.discard(dev_off, length)
