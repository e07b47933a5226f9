"""Copy-on-write node storage and checkpointing.

On-disk B-epsilon-tree nodes are copy-on-write (§2.2): writing a node
allocates a fresh extent; the old extent is reclaimed only once a
checkpoint that no longer references it commits.  The
:class:`BlockManager` owns the extent allocator and the node
translation table (node id -> extent); the table itself is serialized
into the superblock region at each checkpoint, together with the log
position to replay from.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.storage.sfl import SUPERBLOCK_SIZE

SUPERBLOCK_MAGIC = b"BFSB"

#: Alignment of node extents.
EXTENT_ALIGN = 4096


class BlockManager:
    """Extent allocator + node translation table for one tree file.

    A node extent lives through one of three lifetimes once
    :meth:`relocate` supersedes it:

    * *never checkpointed* — allocated and superseded between two
      commits.  No superblock references it, neither the current one
      nor the ping-pong fallback, so :meth:`relocate` hands it back for
      TRIM at once.  It still waits in ``deferred_free`` and becomes
      reusable at the next commit, in the order it was superseded, so
      first-fit allocation is the same as if it had not been trimmed;
      it is never queued for a second TRIM.
    * *checkpointed once* — the current superblock references it.  It
      becomes reusable at the next commit and is TRIMmed at the commit
      after (``_trim_pending``), when the fallback superblock no longer
      references it either.
    * *live* — the table's copy, read by every later checkpoint.

    Putting a never-checkpointed extent back on the free list at once
    would also be safe, but first-fit reuse of such holes turns the
    sequential node-write stream into random writes.
    """

    def __init__(self, file_size: int, reserve: int = 0) -> None:
        #: Node id -> (offset, length) of the *checkpointed* copy.
        self.table: Dict[int, Tuple[int, int]] = {}
        self.file_size = file_size
        #: Bump cursor for fresh space (starts after any reserve).
        self.cursor = reserve
        #: Free extents: list of (offset, length), kept unsorted; the
        #: allocator is first-fit which is adequate for the simulation.
        self.free_list: List[Tuple[int, int]] = []
        #: Extents to reclaim once the *next* checkpoint commits (the
        #: previous checkpoint may still reference them).
        self.deferred_free: List[Tuple[int, int]] = []
        #: Extents reclaimed at the last commit, queued for TRIM at the
        #: one after.  The ping-pong superblock can fall back one
        #: generation, so an extent may only be discarded on-device
        #: once it is two durable checkpoints dead.  Extents re-used by
        #: the allocator in the meantime are unqueued.
        self._trim_pending: List[Tuple[int, int]] = []
        #: Offsets handed out since the last commit: no superblock
        #: references the copy there (a checkpoint commits right after
        #: writing its superblock, with no relocation in between).
        self._fresh: Set[int] = set()

    @staticmethod
    def _align(n: int) -> int:
        return (n + EXTENT_ALIGN - 1) // EXTENT_ALIGN * EXTENT_ALIGN

    def allocate(self, nbytes: int) -> int:
        """Allocate an aligned extent of at least ``nbytes``."""
        need = self._align(nbytes)
        for i, (off, ln) in enumerate(self.free_list):
            if ln >= need:
                if ln == need:
                    self.free_list.pop(i)
                else:
                    self.free_list[i] = (off + need, ln - need)
                self._unqueue_trim(off, need)
                return off
        off = self.cursor
        self.cursor += need
        if self.cursor > self.file_size:
            raise RuntimeError("tree file out of space")
        return off

    def _unqueue_trim(self, off: int, length: int) -> None:
        """Drop ``[off, off+length)`` from the pending-TRIM queue.

        A freed extent that the allocator hands back out holds live
        data again and must not be discarded at the next checkpoint.
        """
        if not self._trim_pending:
            return
        end = off + length
        out: List[Tuple[int, int]] = []
        for p_off, p_len in self._trim_pending:
            p_end = p_off + p_len
            if p_end <= off or p_off >= end:
                out.append((p_off, p_len))
                continue
            if p_off < off:
                out.append((p_off, off - p_off))
            if p_end > end:
                out.append((end, p_end - end))
        self._trim_pending = out

    def relocate(
        self, node_id: int, nbytes: int
    ) -> Tuple[int, Optional[Tuple[int, int]]]:
        """CoW-allocate a new extent for ``node_id``; defer-free the old.

        Returns the new offset and the superseded extent if no
        superblock references it (the caller TRIMs it once the new
        copy is written), else ``None``.  The translation table records
        the *exact* byte length (reads must not pick up alignment
        padding); the free lists work in aligned units.
        """
        old = self.table.get(node_id)
        off = self.allocate(nbytes)
        self._fresh.add(off)
        self.table[node_id] = (off, nbytes)
        if old is None:
            return off, None
        dead = (old[0], self._align(old[1]))
        self.deferred_free.append(dead)
        return off, dead if old[0] in self._fresh else None

    def lookup(self, node_id: int) -> Tuple[int, int]:
        return self.table[node_id]

    def contains(self, node_id: int) -> bool:
        return node_id in self.table

    def commit_checkpoint(self) -> List[Tuple[int, int]]:
        """The checkpoint is durable: reclaim deferred extents.

        Returns ``(offset, length)`` extents that are now safe to TRIM
        down to the device.  An extent freed at this checkpoint is
        *not* trimmed yet: the previous ping-pong superblock still
        references it, and recovery may fall back one generation if
        the newest slot is torn.  It is queued and returned at the
        following commit, once it is two durable checkpoints dead
        (unless the allocator re-used it in between).  An extent that
        no superblock ever referenced was trimmed when it was
        superseded and is not queued again.
        """
        trim_now = self._trim_pending
        self._trim_pending = [
            ext for ext in self.deferred_free if ext[0] not in self._fresh
        ]
        self.free_list.extend(self.deferred_free)
        self.deferred_free.clear()
        self._fresh.clear()
        return trim_now

    # ------------------------------------------------------------------
    # Serialization (into the superblock region)
    # ------------------------------------------------------------------
    def serialize(self) -> bytes:
        out = [struct.pack("<qqi", self.cursor, self.file_size, len(self.table))]
        for node_id in sorted(self.table):
            off, ln = self.table[node_id]
            out.append(struct.pack("<qqq", node_id, off, ln))
        out.append(struct.pack("<i", len(self.free_list)))
        for off, ln in self.free_list:
            out.append(struct.pack("<qq", off, ln))
        return b"".join(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "BlockManager":
        cursor, file_size, n = struct.unpack_from("<qqi", data, 0)
        mgr = cls(file_size)
        mgr.cursor = cursor
        pos = 20
        for _ in range(n):
            node_id, off, ln = struct.unpack_from("<qqq", data, pos)
            pos += 24
            mgr.table[node_id] = (off, ln)
        (nfree,) = struct.unpack_from("<i", data, pos)
        pos += 4
        for _ in range(nfree):
            off, ln = struct.unpack_from("<qq", data, pos)
            pos += 16
            mgr.free_list.append((off, ln))
        return mgr


class Superblock:
    """Checkpoint metadata persisted in the superblock region.

    Two slots are written alternately so a crash during a checkpoint
    write leaves the previous checkpoint intact (the standard
    ping-pong superblock technique).
    """

    #: Each of the two slots owns half of the superblock region.
    SLOT_SIZE = SUPERBLOCK_SIZE // 2

    def __init__(self) -> None:
        self.generation = 0
        self.checkpoint_lsn = 0
        self.log_head = 0
        self.log_tail = 0
        self.next_node_id = 1
        self.next_msn = 1
        self.root_ids: List[int] = []  # root node id per tree
        self.block_tables: List[bytes] = []  # serialized BlockManager per tree
        self.clean_shutdown = False

    def serialize(self) -> bytes:
        body = [
            SUPERBLOCK_MAGIC,
            struct.pack(
                "<qqqqqqB i",
                self.generation,
                self.checkpoint_lsn,
                self.log_head,
                self.log_tail,
                self.next_node_id,
                self.next_msn,
                1 if self.clean_shutdown else 0,
                len(self.root_ids),
            ),
        ]
        for root in self.root_ids:
            body.append(struct.pack("<q", root))
        for table in self.block_tables:
            body.append(struct.pack("<I", len(table)))
            body.append(table)
        blob = b"".join(body)
        crc = struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
        return blob + crc

    @classmethod
    def deserialize(cls, data: bytes) -> Optional["Superblock"]:
        if len(data) < 8 or data[:4] != SUPERBLOCK_MAGIC:
            return None
        blob, crc_raw = data[:-4], data[-4:]
        if struct.unpack("<I", crc_raw)[0] != (zlib.crc32(blob) & 0xFFFFFFFF):
            return None
        sb = cls()
        (
            sb.generation,
            sb.checkpoint_lsn,
            sb.log_head,
            sb.log_tail,
            sb.next_node_id,
            sb.next_msn,
            clean,
            n_roots,
        ) = struct.unpack_from("<qqqqqqB i", data, 4)
        sb.clean_shutdown = bool(clean)
        pos = 4 + struct.calcsize("<qqqqqqB i")
        for _ in range(n_roots):
            (root,) = struct.unpack_from("<q", data, pos)
            pos += 8
            sb.root_ids.append(root)
        for _ in range(n_roots):
            (tlen,) = struct.unpack_from("<I", data, pos)
            pos += 4
            sb.block_tables.append(data[pos : pos + tlen])
            pos += tlen
        return sb

    def frame(self) -> bytes:
        """What a slot holds: a length word, the blob, then a completion
        stamp (magic, generation, blob length, self-CRC).  The stamp is
        the *last* region a sector-prefix torn write persists, which is
        how :func:`read_superblock` tells a torn write from bit rot."""
        blob = self.serialize()
        return (
            struct.pack("<I", len(blob)) + blob + _stamp(self.generation, len(blob))
        )


#: Tail-stamp layout: magic + generation (q) + frame length (I) + CRC.
STAMP_MAGIC = b"BFST"
STAMP_SIZE = 4 + 8 + 4 + 4


def _stamp(generation: int, length: int) -> bytes:
    head = STAMP_MAGIC + struct.pack("<qI", generation, length)
    return head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)


def _stamp_at(raw: bytes, pos: int) -> Optional[int]:
    """The generation of an intact stamp at ``pos``."""
    stamp = raw[pos : pos + STAMP_SIZE]
    if len(stamp) != STAMP_SIZE or stamp[:4] != STAMP_MAGIC:
        return None
    head, crc_raw = stamp[:-4], stamp[-4:]
    if struct.unpack("<I", crc_raw)[0] != (zlib.crc32(head) & 0xFFFFFFFF):
        return None
    generation, stamped_length = struct.unpack_from("<qI", head, 4)
    if pos != 4 + stamped_length:
        return None  # an intact stamp always sits at its frame's tail
    return generation


def _scan_stamp(raw: bytes) -> Optional[int]:
    """The generation of the last intact stamp anywhere in ``raw``."""
    pos = raw.rfind(STAMP_MAGIC)
    while pos != -1:
        found = _stamp_at(raw, pos)
        if found is not None:
            return found
        pos = raw.rfind(STAMP_MAGIC, 0, pos)
    return None


#: Per-slot verdicts of :func:`read_superblock`.
DECODED = "decoded"
EMPTY = "never written"
TORN = "torn"
UNREADABLE = "completed but unreadable"

#: The first read of a slot: its length word, and all of a small frame.
SLOT_HEAD = 4096


class SlotVerdict(NamedTuple):
    state: str
    generation: Optional[int] = None  # decoded, else stamped (if intact)


def read_superblock(
    read: Callable[[int, int], bytes],
) -> Tuple[Optional[Superblock], List[SlotVerdict]]:
    """The newest decodable superblock (slot 0 wins a tie) and one
    verdict per slot, from ``read(offset, length)`` over the region.

    A slot costs its first :data:`SLOT_HEAD` bytes, then the rest of
    the frame its length word names.  A slot that does not decode and
    has no stamp where that word says is read whole, unless its first
    block is blank beside a decoded slot (never written: a torn write
    persists a prefix).  The word may be damaged, so the slot is
    scanned for the stamp magic; with no slot decoded, any data in the
    region is a lost checkpoint.  Such a slot is :data:`UNREADABLE`
    when an intact stamp names a generation newer than every decoded
    slot (a completed write rotted: the survivor is valid but stale),
    else :data:`TORN`: a torn write leaves old bytes in its tail, so it
    cannot fabricate a newer stamp.
    """
    size = Superblock.SLOT_SIZE
    slots = []
    for base in (0, size):
        frame = read(base, SLOT_HEAD)
        (length,) = struct.unpack_from("<I", frame)
        end = min(4 + length + STAMP_SIZE, size)
        if end > SLOT_HEAD:
            frame += read(base + SLOT_HEAD, end - SLOT_HEAD)
        slots.append((base, length, frame, Superblock.deserialize(frame[4 : 4 + length])))
    decoded = [sb for *_, sb in slots if sb is not None]
    newest = max(decoded, key=lambda sb: sb.generation, default=None)
    verdicts: List[SlotVerdict] = []
    for base, length, frame, sb in slots:
        if sb is not None:
            verdicts.append(SlotVerdict(DECODED, sb.generation))
            continue
        generation = _stamp_at(frame, 4 + length)
        blank = frame.count(0, 0, SLOT_HEAD) == SLOT_HEAD
        if generation is None and not (blank and newest is not None):
            if len(frame) < size:
                frame += read(base + len(frame), size - len(frame))
            generation = _scan_stamp(frame)
            blank = frame.count(0) == size
        if blank:
            verdicts.append(SlotVerdict(EMPTY))
            continue
        stale = generation is not None and (
            newest is None or generation > newest.generation
        )
        verdicts.append(SlotVerdict(UNREADABLE if stale else TORN, generation))
    return newest, verdicts
