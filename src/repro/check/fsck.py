"""Offline fsck for crash images (``python -m repro.harness fsck``).

Walks a device image the way recovery would — superblock → checkpoint
(block tables) → node graph → WAL → FTL — and verifies structural
integrity instead of replaying.  Crash/recovery tests use it so
"recovers bit-identically" becomes "recovers *and* fscks clean".

The walk is fully offline: all reads go straight to the image's
:class:`~repro.device.block.ExtentStore`, so no simulated time is
charged and no device state is perturbed.

Checks, in walk order (the node, block-table and FTL invariants are
the statements of :mod:`repro.check.invariants`, shared with the
runtime sanitizer; fsck reports every violation, the sanitizer raises
the first):

* **superblock** — :func:`~repro.core.checkpoint.read_superblock`,
  the reader recovery uses, judges both ping-pong slots from each
  slot's first 4 KiB block and its frame (length word, blob,
  completion stamp).  It reads a slot whole only to scan a slot that
  does not decode for its stamp, or when no slot decodes.  At least
  one slot must decode (an all-zero region is a legal
  pre-first-checkpoint state and only downgrades to a log-only walk;
  data anywhere in it is an error), and a slot whose completed write
  is unreadable makes the survivor a valid-but-stale fallback;
* **checkpoint** — each tree's block table deserializes, fits its
  carved region, and holds the block-table invariants (every extent
  inside the file, no two extents overlapping), and the root id
  resolves;
* **nodes** — every node reachable from each root: CRC verifies
  (after decompression when the ``BFCZ`` magic is present), the
  decoded id matches the table entry, heights descend by exactly one,
  ``msn_max`` is below the superblock's ``next_msn``, the node
  invariants hold with the routing range inherited from the ancestors
  (pivots, keys and buffered messages included), no cycles, and —
  since nodes are never dropped — every table entry is reachable;
* **WAL** — the circular log scans cleanly from the checkpointed head
  with strictly increasing LSNs (a torn tail entry is where recovery
  stops, not an error), and a clean-shutdown superblock implies an
  empty post-checkpoint log;
* **FTL** — when the image carries FTL state, the flash-map
  invariants: valid-page conservation, every fully stored page mapped.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.check.errors import FsckError
from repro.check.invariants import blockman_faults, ftl_faults, node_faults
from repro.core.checkpoint import (
    EMPTY,
    TORN,
    UNREADABLE,
    BlockManager,
    Superblock,
    read_superblock,
)
from repro.core.keys import intersect
from repro.core.node import InternalNode
from repro.core.serialize import ChecksumError, decode_node, unframe
from repro.core.wal import WriteAheadLog
from repro.device.block import BlockDevice, ExtentStore, Segments, cut
from repro.storage.sfl import ImageLayout

#: On-disk image container magic + version.
IMAGE_MAGIC = b"BFIM"
IMAGE_VERSION = 1

#: Tree files in superblock root_ids order, with their layout slot.
_TREE_FILES = ("meta.db", "data.db")


@dataclass
class FsckReport:
    """Outcome of one fsck run."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    nodes_checked: int = 0
    trees_checked: int = 0
    wal_entries: int = 0
    superblock_generation: Optional[int] = None
    clean_shutdown: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def raise_if_errors(self) -> None:
        if self.errors:
            raise FsckError(
                f"fsck found {len(self.errors)} error(s): "
                + "; ".join(self.errors[:8])
            )

    def render(self) -> str:
        lines = [
            "fsck: "
            + ("CLEAN" if self.ok else f"{len(self.errors)} ERROR(S)"),
            f"  superblock generation: {self.superblock_generation}"
            f" (clean_shutdown={self.clean_shutdown})",
            f"  trees checked: {self.trees_checked}"
            f", nodes checked: {self.nodes_checked}"
            f", wal entries past checkpoint: {self.wal_entries}",
        ]
        for err in self.errors:
            lines.append(f"  ERROR: {err}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Layout: the shared SFL partition map (one source of truth).
_Layout = ImageLayout


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------
def fsck_device(
    device: Union[BlockDevice, ExtentStore],
    log_size: int,
    meta_size: int,
    capacity: Optional[int] = None,
    aligned: bool = False,
) -> FsckReport:
    """Check one device image; returns a :class:`FsckReport`.

    ``device`` is a :class:`BlockDevice` (usually a
    :meth:`~repro.device.block.BlockDevice.crash_image`) or a bare
    :class:`ExtentStore` (an image loaded from disk — FTL checks are
    skipped, there is no FTL state in the container).  ``log_size`` /
    ``meta_size`` are the SFL carve sizes the image was created with;
    ``aligned`` is the tree's ``page_sharing`` layout flag.
    """
    report = FsckReport()
    if isinstance(device, BlockDevice):
        store = device.store
        ftl = device.ftl
        if capacity is None:
            capacity = device.profile.capacity
    else:
        store = device
        ftl = None
        if capacity is None:
            # A bare store has no profile; everything stored bounds it.
            capacity = max(
                (off + sum(map(len, segs)) for off, segs in store.snapshot()),
                default=0,
            )
    layout = _Layout(log_size=log_size, meta_size=meta_size, capacity=capacity)

    sb = _check_superblock(store, report)
    if sb is not None:
        _check_trees(store, layout, sb, report, aligned)
        _check_wal(store, layout, sb, report)
    else:
        # Pre-first-checkpoint image: the only durable state is the
        # log, replayed from offset 0.
        _check_wal(store, layout, Superblock(), report)
    if ftl is not None:
        _check_ftl(store, ftl, report)
    return report


def _check_superblock(store: ExtentStore, report: FsckReport) -> Optional[Superblock]:
    sb, slots = read_superblock(store.read)
    if sb is None:
        if any(slot.state != EMPTY for slot in slots):
            report.error(
                "superblock region holds data but neither slot decodes "
                "(both checkpoints torn or corrupt)"
            )
        else:
            report.warn("no checkpoint committed yet (log-only image)")
        return None
    report.superblock_generation = sb.generation
    report.clean_shutdown = sb.clean_shutdown
    # Generation continuity: a completed write whose payload rotted
    # leaves ``sb`` valid but stale, and recovery would hand back an
    # old checkpoint as if it were current.  A torn write is a legal
    # crash artifact.
    for slot_idx, slot in enumerate(slots):
        if slot.state == UNREADABLE:
            report.error(
                f"superblock slot {slot_idx}: completed write of "
                f"generation {slot.generation} is unreadable; surviving "
                f"generation {sb.generation} is a valid-but-stale "
                "fallback (media corruption, not a torn write)"
            )
        elif slot.state == TORN:
            report.warn(
                f"superblock slot {slot_idx}: torn checkpoint write "
                f"(legal crash artifact); fell back to generation "
                f"{sb.generation}"
            )
    if len(sb.root_ids) != len(sb.block_tables):
        report.error(
            f"superblock: {len(sb.root_ids)} roots but "
            f"{len(sb.block_tables)} block tables"
        )
        return None
    return sb


def _check_trees(
    store: ExtentStore,
    layout: _Layout,
    sb: Superblock,
    report: FsckReport,
    aligned: bool,
) -> None:
    for index, (root_id, table_blob) in enumerate(
        zip(sb.root_ids, sb.block_tables)
    ):
        name = _TREE_FILES[index] if index < len(_TREE_FILES) else f"tree{index}"
        try:
            blockman = BlockManager.deserialize(table_blob)
        except (struct.error, ValueError) as exc:
            report.error(f"{name}: block table does not deserialize ({exc})")
            continue
        base, size = layout.tree_region(index)
        _check_blockman(name, blockman, size, report)
        _walk_tree(
            store, name, base, blockman, root_id, sb, report, aligned
        )
        report.trees_checked += 1


def _check_blockman(
    name: str, blockman: BlockManager, region_size: int, report: FsckReport
) -> None:
    for fault in blockman_faults(blockman):
        report.error(f"{name}: {fault}")
    if blockman.file_size > region_size:
        report.error(
            f"{name}: block table file_size {blockman.file_size} exceeds "
            f"the carved region ({region_size})"
        )


def _walk_tree(
    store: ExtentStore,
    name: str,
    file_base: int,
    blockman: BlockManager,
    root_id: int,
    sb: Superblock,
    report: FsckReport,
    aligned: bool,
) -> None:
    if root_id not in blockman.table:
        report.error(f"{name}: root node {root_id} has no extent")
        return
    visited: set = set()
    # (node_id, routing lo, routing hi, expected height or None)
    stack: List[Tuple[int, Optional[bytes], Optional[bytes], Optional[int]]] = [
        (root_id, None, None, None)
    ]
    while stack:
        node_id, lo, hi, want_height = stack.pop()
        if node_id in visited:
            report.error(f"{name}: node {node_id} reachable twice (cycle)")
            continue
        visited.add(node_id)
        if node_id >= sb.next_node_id:
            report.error(
                f"{name}: node id {node_id} >= superblock next_node_id "
                f"{sb.next_node_id}"
            )
        entry = blockman.table.get(node_id)
        if entry is None:
            report.error(f"{name}: node {node_id} referenced but not in table")
            continue
        off, ln = entry
        try:
            data, _inflated = unframe(store.read_segments(file_base + off, ln))
            # Every CRC the node carries — a leaf's header and each of
            # its basements — is checked; the error names the basement.
            node = decode_node(data, aligned=aligned)
        except (ChecksumError, ValueError, struct.error) as exc:
            report.error(f"{name}: node {node_id} unreadable: {exc}")
            continue
        report.nodes_checked += 1
        if node.node_id != node_id:
            report.error(
                f"{name}: extent for node {node_id} decodes as node "
                f"{node.node_id}"
            )
            continue
        if want_height is not None and node.height != want_height:
            report.error(
                f"{name}: node {node_id} has height {node.height}, parent "
                f"expects {want_height}"
            )
        if node.msn_max >= sb.next_msn:
            report.error(
                f"{name}: node {node_id} msn_max {node.msn_max} >= superblock "
                f"next_msn {sb.next_msn}"
            )
        for fault in node_faults(node, lo, hi):
            report.error(f"{name}: {fault}")
        if isinstance(node, InternalNode):
            for idx, child in enumerate(node.children):
                c_lo, c_hi = intersect(*node.child_range(idx), lo, hi)
                stack.append((child, c_lo, c_hi, node.height - 1))
    unreachable = sorted(set(blockman.table) - visited)
    if unreachable:
        report.error(
            f"{name}: {len(unreachable)} table extent(s) unreachable from "
            f"the root (nodes are never dropped): {unreachable[:8]}"
        )


def _check_wal(
    store: ExtentStore, layout: _Layout, sb: Superblock, report: FsckReport
) -> None:
    if layout.log_size <= 0:
        return
    try:
        entries, _end = WriteAheadLog.scan(
            lambda off, ln: store.read(layout.log_base + off, ln),
            layout.log_size,
            sb.log_head,
            sb.checkpoint_lsn + 1,
        )
    except (struct.error, ValueError) as exc:
        report.error(f"log: scan failed ({exc})")
        return
    report.wal_entries = len(entries)
    last_lsn = sb.checkpoint_lsn
    for entry in entries:
        if entry.lsn <= last_lsn:
            report.error(
                f"log: LSN {entry.lsn} not increasing (prev {last_lsn})"
            )
            break
        last_lsn = entry.lsn
    if sb.clean_shutdown and entries:
        report.error(
            f"log: clean-shutdown superblock but {len(entries)} entries "
            "past the checkpoint"
        )


def _check_ftl(store: ExtentStore, ftl, report: FsckReport) -> None:
    for fault in ftl_faults(store, ftl):
        report.error(f"ftl: {fault}")


# ----------------------------------------------------------------------
# Image container (for the CLI path)
# ----------------------------------------------------------------------
def save_image(
    device: BlockDevice,
    path: str,
    log_size: int,
    meta_size: int,
    aligned: bool = False,
) -> None:
    """Write a device's persisted bytes plus layout metadata to a file.

    FTL state is not serialized; an image loaded back from disk skips
    the FTL leg of fsck.
    """
    extents = device.store.snapshot()
    parts = [
        IMAGE_MAGIC,
        struct.pack(
            "<HBBqqqI",
            IMAGE_VERSION,
            1 if aligned else 0,
            0,
            device.profile.capacity,
            log_size,
            meta_size,
            len(extents),
        ),
    ]
    for off, segments in extents:
        parts.append(struct.pack("<qq", off, sum(map(len, segments))))
        parts.extend(segments)
    blob = b"".join(parts)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(blob)


@dataclass
class DeviceImage:
    """A loaded image: the store plus the layout it was carved with."""

    store: ExtentStore
    capacity: int
    log_size: int
    meta_size: int
    aligned: bool

    def fsck(self) -> FsckReport:
        return fsck_device(
            self.store,
            log_size=self.log_size,
            meta_size=self.meta_size,
            capacity=self.capacity,
            aligned=self.aligned,
        )


def load_image(path: str) -> DeviceImage:
    """Read an image written by :func:`save_image`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != IMAGE_MAGIC:
        raise FsckError(f"{path}: not a device image (bad magic)")
    body, crc_raw = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_raw)[0] != (zlib.crc32(body) & 0xFFFFFFFF):
        raise FsckError(f"{path}: image container checksum mismatch")
    version, aligned, _pad, capacity, log_size, meta_size, n = struct.unpack_from(
        "<HBBqqqI", blob, 4
    )
    if version != IMAGE_VERSION:
        raise FsckError(f"{path}: unsupported image version {version}")
    pos = 4 + struct.calcsize("<HBBqqqI")
    store = ExtentStore()
    for _ in range(n):
        off, ln = struct.unpack_from("<qq", blob, pos)
        pos += 16
        store.write(off, blob[pos : pos + ln])
        pos += ln
    return DeviceImage(
        store=store,
        capacity=capacity,
        log_size=log_size,
        meta_size=meta_size,
        aligned=bool(aligned),
    )


# ----------------------------------------------------------------------
# fsck of a mount's image, volume by volume
# ----------------------------------------------------------------------
class VolumeStore:
    """Base-shifted view of one volume slot in a shared extent store.

    A mount carves one device into N SFL volume slots (N = 1 unless it
    is sharded, ``repro.shard``).  This adapter presents volume *i*'s
    ``[base, base + size)`` byte range as a standalone image starting
    at offset 0, so the unmodified :func:`fsck_device` walk checks
    each volume exactly as it would a single-volume device.
    """

    def __init__(self, store: ExtentStore, base: int, size: int) -> None:
        self.store = store
        self.base = base
        self.size = size

    def read(self, offset: int, length: int) -> bytes:
        return self.store.read(self.base + offset, length)

    def read_segments(self, offset: int, length: int) -> Segments:
        return self.store.read_segments(self.base + offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self.store.write(self.base + offset, data)

    def snapshot(self) -> List[Tuple[int, Segments]]:
        out: List[Tuple[int, Segments]] = []
        for off, segments in self.store.snapshot():
            lo = max(off, self.base)
            hi = min(off + sum(map(len, segments)), self.base + self.size)
            if lo < hi:
                out.append((lo - self.base, cut(segments, lo - off, hi - off)))
        return out


def fsck_mount(mount, image: Optional[BlockDevice] = None) -> FsckReport:
    """fsck every volume of a mount's crash image, one merged report
    (errors and warnings prefixed ``volN:`` when there is more than one
    volume; the shared device's FTL checked once).

    The carve is read off the mount that made it — ``opts.log_size`` /
    ``meta_size``, ``volume_bytes``, ``config.page_sharing`` — so no
    caller retypes geometry.  ``image`` defaults to a crash image of
    the mount's device as it stands.  A mount stacked on ext4
    (``features.use_sfl`` off) has no SFL layout to walk: refusing is
    the only honest answer, the walk would read zeros and say CLEAN.
    """
    if not mount.features.use_sfl:
        raise FsckError(
            f"{mount.name}: the trees are files of a stacked ext4, not an "
            "SFL carve; this fsck walks only the SFL layout"
        )
    if image is None:
        image = mount.device.crash_image()
    opts = mount.opts
    volumes = len(mount.storages)
    size = mount.volume_bytes
    merged = FsckReport(clean_shutdown=True)
    generations = set()
    for i in range(volumes):
        report = fsck_device(
            VolumeStore(image.store, i * size, size),
            opts.log_size,
            opts.meta_size,
            capacity=size,
            aligned=mount.config.page_sharing,
        )
        prefix = f"vol{i}: " if volumes > 1 else ""
        merged.errors += [prefix + e for e in report.errors]
        merged.warnings += [prefix + w for w in report.warnings]
        merged.nodes_checked += report.nodes_checked
        merged.trees_checked += report.trees_checked
        merged.wal_entries += report.wal_entries
        merged.clean_shutdown &= report.clean_shutdown
        generations.add(report.superblock_generation)
    if len(generations) == 1:
        merged.superblock_generation = generations.pop()
    if image.ftl is not None:
        # The FTL belongs to the shared device, not to any one slot.
        _check_ftl(image.store, image.ftl, merged)
    return merged
