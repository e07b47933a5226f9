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
from typing import Dict, List, Optional, Set, Tuple

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

    SLOT_SIZE = 4 * 1024 * 1024

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

    @classmethod
    def load_latest(cls, slot0: bytes, slot1: bytes) -> Optional["Superblock"]:
        """Pick the newest valid superblock of the two slots."""
        a = cls.deserialize(_trim(slot0))
        b = cls.deserialize(_trim(slot1))
        if a is None:
            return b
        if b is None:
            return a
        return a if a.generation >= b.generation else b


def _trim(raw: bytes) -> bytes:
    """Strip zero padding after the CRC.

    Superblock slots are fixed-size regions; the serialized blob is
    shorter.  A 4-byte length prefix would be cleaner, but matching
    the checkpoint format we locate the blob by its own length word:
    the blob is self-delimiting because we persist it with a length
    header added by the caller.
    """
    if len(raw) < 4:
        return raw
    (length,) = struct.unpack_from("<I", raw, 0)
    return raw[4 : 4 + length]


def frame_superblock(blob: bytes) -> bytes:
    """Add the length header expected by :func:`_trim`, plus a
    completion stamp.

    The stamp — magic, generation, frame length, self-CRC — rides at
    the tail of the frame, so it is the *last* region a sector-prefix
    torn write persists.  That asymmetry is what lets fsck distinguish
    the two ways a slot can fail to decode:

    * **torn write** (crash mid-checkpoint): the tail sector still
      holds old bytes, so no intact stamp claims a generation newer
      than the surviving slot — a legal crash artifact, fallback is
      silent;
    * **media corruption** (bit rot in a *completed* write): the stamp
      is intact and names a generation newer than the survivor — the
      fallback is valid-but-stale and fsck must say so.

    The generation is read out of the blob itself (it is the first
    field after the magic) so callers need not thread it through.
    Images framed before stamps existed simply have no stamp and
    degrade to the torn-write reading.
    """
    framed = struct.pack("<I", len(blob)) + blob
    generation = 0
    if len(blob) >= 12 and blob[:4] == SUPERBLOCK_MAGIC:
        (generation,) = struct.unpack_from("<q", blob, 4)
    return framed + _stamp(generation, len(blob))


#: Tail-stamp layout: magic + generation (q) + frame length (I) + CRC.
STAMP_MAGIC = b"BFST"
STAMP_SIZE = 4 + 8 + 4 + 4


def _stamp(generation: int, length: int) -> bytes:
    head = STAMP_MAGIC + struct.pack("<qI", generation, length)
    return head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)


def _stamp_at(raw: bytes, pos: int) -> Optional[Tuple[int, int]]:
    """Decode and self-verify a stamp at ``pos``; position must agree."""
    stamp = raw[pos : pos + STAMP_SIZE]
    if len(stamp) != STAMP_SIZE or stamp[:4] != STAMP_MAGIC:
        return None
    head, crc_raw = stamp[:-4], stamp[-4:]
    if struct.unpack("<I", crc_raw)[0] != (zlib.crc32(head) & 0xFFFFFFFF):
        return None
    generation, stamped_length = struct.unpack_from("<qI", head, 4)
    if pos != 4 + stamped_length:
        return None  # an intact stamp always sits at its frame's tail
    return generation, stamped_length


def read_slot_stamp(raw: bytes) -> Optional[Tuple[int, int]]:
    """``(generation, blob length)`` of an intact completion stamp.

    ``None`` means no intact stamp exists — the slot was never fully
    written (torn / empty / pre-stamp image).  Callers treat ``None``
    as the benign reading; only an *intact* stamp can prove a write
    completed.

    The primary position comes from the length header; if that header
    is itself damaged (a media fault can hit any byte) the slot is
    scanned for the stamp magic, and a candidate counts only when its
    self-CRC holds *and* it sits exactly where a frame of its recorded
    length would end — a sector-prefix torn write cannot fabricate
    that, because the stamp is the last region written.
    """
    if len(raw) < 4:
        return None
    (length,) = struct.unpack_from("<I", raw, 0)
    if length > 0:
        found = _stamp_at(raw, 4 + length)
        if found is not None:
            return found
    pos = raw.rfind(STAMP_MAGIC)
    while pos != -1:
        found = _stamp_at(raw, pos)
        if found is not None:
            return found
        pos = raw.rfind(STAMP_MAGIC, 0, pos)
    return None
