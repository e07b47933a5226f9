"""Node (de)serialization.

Two leaf layouts are supported:

* **packed** (baseline): each basement is a packed run of
  ``key1,value1,key2,value2,...`` — reading a file block out of it
  requires copying, and writing requires serializing every byte.
* **aligned** (paper §6, +PGSH): keys and small values are packed at
  the front of each basement and all 4 KiB page values are placed in
  4 KiB-aligned slots at the end, in entry order.  With scatter-gather
  I/O only the small front section costs serialization CPU; pages are
  passed by reference (zero copy), and a node read leaves every file
  block 4 KiB-aligned in memory, ready to be shared with the page cache.

Both layouts apply *lifting*-style prefix compression: the longest
common prefix of all keys in the node is stored once in the header and
stripped from every key.

Every byte of a serialized node is under a CRC32, matching the paper's
at-rest corruption detection.  An internal node ends with the CRC32 of
all that precedes it.  A leaf carries its checksums in its header
region, so that a basement can be read and verified without its
siblings: the fixed head gives the region's length, the region closes
with the CRC32 of the rest of it, and each basement-table row holds the
CRC32 of that basement's extent.  A compressed node (the
``compression`` ablation) is stored in one frame — magic, length, zlib
stream — that :func:`frame_compressed` writes and :func:`unframe` reads
for the tree and fsck alike; a frame that does not inflate to its
length is a :class:`ChecksumError`, like any other corruption.

A node is a segment list end to end (DESIGN.md, "Node codec").  Encode
walks the node once, emits one ``pack`` per entry, sizes every region
by arithmetic and leaves the node as the segments it built — each front
section joined once, every page slot the page's own ``bytes``, the pads
— which the device store keeps as they are; only the compressed frame
is joined.  Decode reads whatever segments a read returns through one
reader, :class:`NodeImage`: it chains each CRC32 over the segments,
parses each front section in place, and hands back a page slot that is
exactly one segment as that very ``bytes`` — the page the store holds
becomes the decoded ``PageFrame.data``, not a copy — counting, as it
passes them, the bulk-value bytes the tree's cost model asks for.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from struct import Struct, pack, unpack_from
from typing import Callable, List, Optional, Sequence, Tuple, Union
from zlib import compress, crc32, decompress, error as ZlibError

from repro.core.keys import common_prefix_of
from repro.check.errors import require
from repro.core.messages import (
    Delete,
    Insert,
    Message,
    PageFrame,
    Patch,
    RangeDelete,
    Value,
)
from repro.core.node import BasementNode, InternalNode, LeafNode, Node
from repro.device.block import cut

MAGIC_LEAF = b"BFLF"
MAGIC_INTERNAL = b"BFIN"

_TAG_BYTES = 0
_TAG_PAGE = 1

_MSG_TAGS = {"insert": 0, "insert_by_ref": 1, "delete": 2, "patch": 3, "range_delete": 4}
_MSG_DELETE, _MSG_PATCH, _MSG_RANGE_DELETE = (
    _MSG_TAGS[kind] for kind in ("delete", "patch", "range_delete")
)

PAGE_ALIGN = 4096

#: A decoded value at least this long is bulk data (one ``memcpy`` in
#: the packed layout); everything else in a node is irregular bytes
#: that cost serialization CPU.  :func:`decode_node` reports the split.
BULK_VALUE_MIN = 512

_U32 = Struct("<I")
#: Leaf: magic, node id, height, basement count, lift length, length of
#: the header region (the table, any padding and its CRC32 included).
_LEAF_HEAD = Struct("<4sqiiHI")
#: Leaf basement-table row: offset, length, CRC32 of that extent,
#: first-key length (+ key).
_TABLE_ROW = Struct("<IIIH")
#: Aligned basement: page-area start (from the basement), pair count.
_ALIGNED_BASEMENT_HEAD = Struct("<ii")
_PACKED_BASEMENT_HEAD = Struct("<i")
#: After a pair's key — packed: msn, tag, value length; aligned: msn,
#: tag, page slot index (-1 = inline), value length.
_PACKED_PAIR = Struct("<qBI")
_ALIGNED_PAIR = Struct("<qBiI")
#: Internal: page-area start (0 = none), magic, node id, height, child
#: count, message count, lift length.
_INTERNAL_HEAD = Struct("<i4sqiiiH")
#: Every message starts: kind tag, msn, length of its (first) key.
_MSG_HEAD = Struct("<BqH")
#: After an insert's key: the value header, as in a leaf minus the msn.
_PACKED_VALUE = Struct("<BI")
_ALIGNED_VALUE = Struct("<BiI")
_PATCH_SPAN = Struct("<II")


class _Keyed(dict):
    """``self[n]``: the compiled ``pack`` of ``fmt % n`` — one entry's
    fixed fields around a key of ``n`` bytes — compiled on first use.
    A pure memo of at most 65,536 lengths per format."""

    def __init__(self, fmt: str) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, n: int) -> Callable[..., bytes]:
        packer = self[n] = Struct(self.fmt % n).pack
        return packer


_KEY = _Keyed("<H%ds")
_PACKED_ENTRY = _Keyed("<H%dsqBI")
_ALIGNED_ENTRY = _Keyed("<H%dsqBiI")
_MSG_KEY = _Keyed("<BqH%ds")
_MSG_PACKED_INSERT = _Keyed("<BqH%dsBI")
_MSG_ALIGNED_INSERT = _Keyed("<BqH%dsBiI")
_MSG_PATCH_ENTRY = _Keyed("<BqH%dsII")


@dataclass
class SerializedNode:
    """A serialized node plus the cost-relevant byte counts."""

    #: The node's bytes as the segments the encoder built, in order:
    #: front sections, each page slot as the page's own ``bytes``, and
    #: pads.  Written to the device as they are (scatter-gather).
    segments: Tuple[bytes, ...]
    #: Total bytes of ``segments``.
    length: int
    #: Bytes serialized through the CPU (keys, small values, headers).
    small_bytes: int = 0
    #: Bytes memcpy'ed (page values in the packed layout).
    copied_bytes: int = 0
    #: Page bytes passed by reference (aligned layout; no CPU copy).
    ref_bytes: int = 0
    #: Basement extent table: (offset, length, CRC32) within the node.
    basement_extents: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Length of the leaf header region (readable on its own).
    header_len: int = 0


def _align(n: int) -> int:
    return n + -n % PAGE_ALIGN


def _append_pages(parts: List[bytes], pages: List[bytes]) -> Tuple[int, int]:
    """Append each page in its own aligned slot; returns the pages'
    bytes without and with the slot padding."""
    ref = padding = 0
    for data in pages:
        parts.append(data)
        ref += len(data)
        pad = -len(data) % PAGE_ALIGN
        if pad:
            parts.append(b"\x00" * pad)
            padding += pad
    return ref, ref + padding


def _crc_from(parts: List[bytes], start: int) -> int:
    """The CRC32 of ``parts[start:]``, as if joined."""
    crc = 0
    for i in range(start, len(parts)):
        crc = crc32(parts[i], crc)
    return crc


def _seal(parts: List[bytes]) -> Tuple[bytes, ...]:
    """An internal node's parts behind the CRC32 of all of them."""
    parts.append(_U32.pack(_crc_from(parts, 0)))
    return tuple(parts)


# ----------------------------------------------------------------------
# Leaf serialization
# ----------------------------------------------------------------------
def _encode_basement_packed(
    parts: List[bytes], basement: BasementNode, lift: int
) -> Tuple[int, int]:
    """Append one packed basement; returns (small, copied) — together
    its length."""
    run = [_PACKED_BASEMENT_HEAD.pack(len(basement.keys))]
    add = run.append
    small = 4
    copied = 0
    for key, value, msn in zip(basement.keys, basement.values, basement.msns):
        klen = len(key) - lift
        small += 15 + klen
        if isinstance(value, PageFrame):
            value = value.data
            copied += len(value)
            tag = _TAG_PAGE
        else:
            small += len(value)
            tag = _TAG_BYTES
        add(_PACKED_ENTRY[klen](klen, key[lift:], msn, tag, len(value)))
        add(value)
    parts.append(b"".join(run))
    return small, copied


def _encode_basement_aligned(
    parts: List[bytes], basement: BasementNode, lift: int
) -> Tuple[int, int, int]:
    """Append one aligned basement — small front section, then the
    page slots; returns (small, ref, length)."""
    front = [b""]  # the page-area start is known after the walk
    add = front.append
    pages: List[bytes] = []
    small = 4
    for key, value, msn in zip(basement.keys, basement.values, basement.msns):
        klen = len(key) - lift
        small += 19 + klen
        if isinstance(value, PageFrame):
            value = value.data
        elif len(value) < PAGE_ALIGN:
            add(_ALIGNED_ENTRY[klen](klen, key[lift:], msn, _TAG_BYTES, -1, len(value)))
            add(value)
            small += len(value)
            continue
        add(_ALIGNED_ENTRY[klen](klen, key[lift:], msn, _TAG_PAGE, len(pages), len(value)))
        pages.append(value)
    # ``small`` is the front section's length (the count word included).
    page_area_start = _align(small + 4)
    front[0] = _ALIGNED_BASEMENT_HEAD.pack(page_area_start, len(basement.keys))
    add(b"\x00" * (page_area_start - small - 4))
    parts.append(b"".join(front))
    ref, slots = _append_pages(parts, pages)
    return small, ref, page_area_start + slots


def serialize_leaf(leaf: LeafNode, aligned: bool, lifting: bool) -> SerializedNode:
    basements = leaf.basements
    prefix = b""
    if lifting:
        prefix = common_prefix_of(
            [key for b in basements if b.keys for key in (b.keys[0], b.keys[-1])]
        )
    lift = len(prefix)
    # Basement table (with per-basement first keys, enabling partial
    # leaf loads) placed in the header so it can be read alone.
    first_keys = [(b.first_key() or b"")[lift:] for b in basements]
    header_len = 30 + lift + sum(14 + len(fk) for fk in first_keys)
    if aligned:
        header_len = _align(header_len)

    parts: List[bytes] = [b""]  # the header needs every basement's extent
    extents: List[Tuple[int, int, int]] = []
    small = copied = ref = 0
    pos = header_len
    for basement in basements:
        first_part = len(parts)
        if aligned:
            # An aligned basement is whole pages long, so the next
            # one starts aligned without padding.
            s, r, length = _encode_basement_aligned(parts, basement, lift)
            ref += r
        else:
            s, c = _encode_basement_packed(parts, basement, lift)
            copied += c
            length = s + c
        small += s
        extents.append((pos, length, _crc_from(parts, first_part)))
        pos += length

    header = [
        _LEAF_HEAD.pack(MAGIC_LEAF, leaf.node_id, leaf.height, len(basements), lift, header_len),
        prefix,
    ]
    for (off, length, crc), fk in zip(extents, first_keys):
        header.append(_TABLE_ROW.pack(off, length, crc, len(fk)))
        header.append(fk)
    head = b"".join(header).ljust(header_len - 4, b"\x00")
    parts[0] = head + _U32.pack(crc32(head))
    return SerializedNode(
        segments=tuple(parts),
        length=pos,
        small_bytes=small + header_len,
        copied_bytes=copied,
        ref_bytes=ref,
        basement_extents=extents,
        header_len=header_len,
    )


# ----------------------------------------------------------------------
# The reader
# ----------------------------------------------------------------------
#: What a decoder accepts: one buffer, the segments of one (a
#: :class:`SerializedNode`'s, or a device read's), or a reader on them.
Image = Union[bytes, Sequence[bytes], "NodeImage"]


class NodeImage:
    """Random access to a serialized node held as segments — the only
    way any decoder reads a node.

    :meth:`take` returns the segment itself when the bytes asked for are
    exactly one segment (a page slot, a front section, a leaf header,
    as the encoder wrote them), a slice when they lie inside one (a
    read's edge, the 8 KiB head read, an image that is one buffer), and
    a join only when they straddle segments (a torn or crash-replayed
    image).  :meth:`crc` chains CRC32 over the segments in place.  A
    request outside the image is a :class:`ChecksumError`: a corrupt
    length must never become an ``IndexError`` or an ``assert``.
    """

    __slots__ = ("parts", "ends", "length")

    def __init__(self, data: Union[bytes, Sequence[bytes]]) -> None:
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = (bytes(data),)
        self.parts: Tuple[bytes, ...] = tuple(data)
        #: ``ends[i]``: the offset just past ``parts[i]``.
        self.ends = list(accumulate(map(len, self.parts)))
        self.length = self.ends[-1] if self.ends else 0

    def _outside(self, pos: int, n: int) -> ChecksumError:
        return ChecksumError(
            f"node image of {self.length} bytes has no [{pos}, {pos + n})"
        )

    def take(self, pos: int, n: int) -> bytes:
        """Bytes ``[pos, pos + n)``, by reference where one segment
        holds exactly them."""
        end = pos + n
        if pos < 0 or n < 0 or end > self.length:
            raise self._outside(pos, n)
        if not n:
            return b""
        ends, parts = self.ends, self.parts
        i = bisect_right(ends, pos)
        seg = parts[i]
        if end <= ends[i]:
            if n == len(seg):
                return seg
            lo = pos - ends[i] + len(seg)
            return seg[lo : lo + n]
        # The bytes straddle segments: join the pieces.
        return b"".join(cut(parts, pos, end, ends))

    def crc(self, pos: int, n: int) -> int:
        """The CRC32 of bytes ``[pos, pos + n)``, chained over the
        segments without joining them."""
        end = pos + n
        if pos < 0 or n < 0 or end > self.length:
            raise self._outside(pos, n)
        if not n:
            return 0
        ends, parts = self.ends, self.parts
        i = bisect_right(ends, pos)
        j = bisect_left(ends, end)  # parts[j] holds byte end - 1
        head = parts[i]
        lo = pos - ends[i] + len(head)
        if i == j:
            hi = end - ends[i] + len(head)
            return crc32(head if hi - lo == len(head) else memoryview(head)[lo:hi])
        crc = crc32(memoryview(head)[lo:] if lo else head)
        for seg in parts[i + 1 : j]:
            crc = crc32(seg, crc)
        tail = parts[j]
        hi = end - ends[j] + len(tail)
        return crc32(tail if hi == len(tail) else memoryview(tail)[:hi], crc)


def as_image(data: Image) -> NodeImage:
    """``data`` as a :class:`NodeImage` (itself, if it is one)."""
    return data if isinstance(data, NodeImage) else NodeImage(data)


# ----------------------------------------------------------------------
# Leaf deserialization
# ----------------------------------------------------------------------
@dataclass
class LeafHeader:
    node_id: int
    height: int
    lift_prefix: bytes
    #: One (offset, length, CRC32) per basement; they tile the extent
    #: from ``header_len`` to its end.
    basement_extents: List[Tuple[int, int, int]]
    basement_first_keys: List[bytes]
    header_len: int


def leaf_header_len(head: Image, extent_len: int) -> int:
    """The length of the header region of the leaf whose extent of
    ``extent_len`` bytes starts with ``head``: what a reader must hold
    before :func:`decode_leaf_header` can verify it."""
    image = as_image(head)
    if image.length >= _LEAF_HEAD.size:
        magic, _id, _height, _n_bas, _lift, header_len = _LEAF_HEAD.unpack(
            image.take(0, _LEAF_HEAD.size)
        )
        if magic == MAGIC_LEAF and 30 <= header_len <= extent_len:
            return header_len
    raise ChecksumError("not the head of a leaf of this extent")


def decode_leaf_header(data: Image, extent_len: int) -> LeafHeader:
    """Verify, then parse, the header region that ``data`` starts with.
    Only the region's length is read ahead of its CRC32."""
    image = as_image(data)
    header_len = leaf_header_len(image, extent_len)
    end = header_len - 4
    data = image.take(0, header_len)  # the header segment, as written
    if _U32.unpack_from(data, end)[0] != crc32(memoryview(data)[:end]):
        raise ChecksumError("leaf header checksum mismatch")
    _magic, node_id, height, n_bas, lift, _len = _LEAF_HEAD.unpack_from(data, 0)
    pos = 26 + lift
    prefix = data[26:pos]
    extents = []
    first_keys = []
    tiled = header_len  # where the next basement must start; -1 once one did not
    for _ in range(n_bas):
        off, ln, crc, fklen = _TABLE_ROW.unpack_from(data, pos)
        pos += 14
        fk = data[pos : pos + fklen]
        pos += fklen
        first_keys.append(prefix + fk if fk else b"")
        extents.append((off, ln, crc))
        tiled = tiled + ln if off == tiled else -1
    if tiled != extent_len:
        raise ChecksumError("leaf basement table does not tile the extent")
    return LeafHeader(node_id, height, prefix, extents, first_keys, header_len)


def _decode_basement_packed(data: bytes, prefix: bytes) -> Tuple[BasementNode, int]:
    """Decode the packed basement ``data`` (one segment as written:
    values are copied out of it); returns it and its bulk-value bytes."""
    basement = BasementNode()
    add_key, add_value, add_msn = (
        basement.keys.append, basement.values.append, basement.msns.append
    )
    (count,) = _PACKED_BASEMENT_HEAD.unpack_from(data, 0)
    pos = 4
    nbytes = BasementNode.PAIR_OVERHEAD * count
    bulk = 0
    unpack, bulk_min = _PACKED_PAIR.unpack_from, BULK_VALUE_MIN
    for _ in range(count):
        end = pos + 2 + (data[pos] | data[pos + 1] << 8)
        key = prefix + data[pos + 2 : end]
        msn, tag, vlen = unpack(data, end)
        pos = end + 13 + vlen
        value: Value = data[end + 13 : pos]
        add_key(key)
        add_value(PageFrame(value) if tag == _TAG_PAGE else value)
        add_msn(msn)
        nbytes += len(key) + vlen
        if vlen >= bulk_min:
            bulk += vlen
    basement.nbytes = nbytes
    return basement, bulk


def _decode_basement_aligned(image: NodeImage, base: int, prefix: bytes) -> Tuple[BasementNode, int]:
    """Decode the aligned basement at ``base`` of ``image`` — its front
    section in place, each page slot by reference; returns it and its
    bulk-value bytes."""
    basement = BasementNode()
    add_key, add_value, add_msn = (
        basement.keys.append, basement.values.append, basement.msns.append
    )
    page_pos, count = _ALIGNED_BASEMENT_HEAD.unpack(image.take(base, 8))
    data = image.take(base, page_pos)  # the front section, pad included
    take = image.take
    page_pos += base  # page slots follow one another in entry order
    pos = 8
    nbytes = BasementNode.PAIR_OVERHEAD * count
    bulk = 0
    unpack, bulk_min, align = _ALIGNED_PAIR.unpack_from, BULK_VALUE_MIN, PAGE_ALIGN
    for _ in range(count):
        end = pos + 2 + (data[pos] | data[pos + 1] << 8)
        key = prefix + data[pos + 2 : end]
        msn, tag, _slot, vlen = unpack(data, end)
        pos = end + 17
        add_key(key)
        if tag == _TAG_PAGE:
            add_value(PageFrame(take(page_pos, vlen)))
            page_pos += vlen + -vlen % align
        else:
            add_value(data[pos : pos + vlen])
            pos += vlen
        add_msn(msn)
        nbytes += len(key) + vlen
        if vlen >= bulk_min:
            bulk += vlen
    basement.nbytes = nbytes
    return basement, bulk


def decode_basement(
    data: Image,
    at: int,
    index: int,
    extent: Tuple[int, int, int],
    prefix: bytes,
    aligned: bool,
) -> Tuple[BasementNode, int]:
    """Verify, then decode, a leaf's basement ``index`` — ``extent`` is
    its table row — from where it starts in ``data``; returns it and
    its bulk-value bytes."""
    image = as_image(data)
    _off, length, crc = extent
    if at + length > image.length or image.crc(at, length) != crc:
        raise ChecksumError(f"basement {index} checksum mismatch")
    if aligned:
        return _decode_basement_aligned(image, at, prefix)
    return _decode_basement_packed(image.take(at, length), prefix)


def _decode_leaf(image: NodeImage, aligned: bool) -> Tuple[LeafNode, int]:
    header = decode_leaf_header(image, image.length)
    basements: List[BasementNode] = []
    bulk = 0
    for index, extent in enumerate(header.basement_extents):
        basement, b = decode_basement(
            image, extent[0], index, extent, header.lift_prefix, aligned
        )
        basements.append(basement)
        bulk += b
    leaf = LeafNode(header.node_id, basements)
    leaf.dirty = False
    return leaf, bulk


# ----------------------------------------------------------------------
# Internal node serialization
# ----------------------------------------------------------------------
def serialize_internal(node: InternalNode, aligned: bool, lifting: bool) -> SerializedNode:
    prefix = b""
    if lifting:
        keys: List[bytes] = list(node.pivots)
        for msg in node.buffer:
            if msg.is_range:
                keys.append(msg.start)  # type: ignore[attr-defined]
                keys.append(msg.end)  # type: ignore[attr-defined]
            else:
                keys.append(msg.key)  # type: ignore[attr-defined]
        prefix = common_prefix_of(keys)
    lift = len(prefix)

    children = node.children
    # Slot 0: the fixed header, which starts with the page-area offset.
    front: List[bytes] = [b"", prefix, pack("<%dq" % len(children), *children)]
    add = front.append
    small = 26 + lift + 8 * len(children)
    for pivot in node.pivots:
        klen = len(pivot) - lift
        add(_KEY[klen](klen, pivot[lift:]))
        small += 2 + klen

    copied = 0
    pages: List[bytes] = []
    insert = _MSG_ALIGNED_INSERT if aligned else _MSG_PACKED_INSERT
    for msg in node.buffer:
        tag = _MSG_TAGS[msg.kind]
        msn = msg.msn
        if tag == _MSG_RANGE_DELETE:
            klen = len(msg.start) - lift
            elen = len(msg.end) - lift
            add(_MSG_KEY[klen](tag, msn, klen, msg.start[lift:]))
            add(_KEY[elen](elen, msg.end[lift:]))
            small += 13 + klen + elen
            continue
        key = msg.key
        klen = len(key) - lift
        small += 11 + klen
        if tag == _MSG_DELETE:
            add(_MSG_KEY[klen](tag, msn, klen, key[lift:]))
        elif tag == _MSG_PATCH:
            add(_MSG_PATCH_ENTRY[klen](tag, msn, klen, key[lift:], msg.offset, len(msg.data)))
            add(msg.data)
            small += 8 + len(msg.data)
        else:  # insert / insert_by_ref: a value, inline or a page
            value = msg.value
            paged = isinstance(value, PageFrame)
            if paged:
                value = value.data
            if not aligned:
                vtag = _TAG_PAGE if paged else _TAG_BYTES
                add(insert[klen](tag, msn, klen, key[lift:], vtag, len(value)))
                add(value)
                small += 5
                if paged:
                    copied += len(value)
                else:
                    small += len(value)
            elif paged:
                add(insert[klen](tag, msn, klen, key[lift:], _TAG_PAGE, len(pages), len(value)))
                pages.append(value)
                small += 9
            else:
                add(insert[klen](tag, msn, klen, key[lift:], _TAG_BYTES, -1, len(value)))
                add(value)
                small += 9 + len(value)

    # ``small + copied`` is everything after the page-area word so far.
    page_area_start = 0
    if pages:
        page_area_start = _align(small + copied + 4)
        add(b"\x00" * (page_area_start - small - copied - 4))
    front[0] = _INTERNAL_HEAD.pack(
        page_area_start, MAGIC_INTERNAL, node.node_id, node.height,
        len(children), len(node.buffer), lift,
    )
    parts = [b"".join(front)]
    ref, slots = _append_pages(parts, pages)
    return SerializedNode(
        segments=_seal(parts),
        length=len(parts[0]) + slots + 4,
        small_bytes=small,
        copied_bytes=copied,
        ref_bytes=ref,
    )


def _decode_internal(image: NodeImage, aligned: bool) -> Tuple[InternalNode, int]:
    (page_pos,) = unpack_from("<i", image.take(0, 4))
    # The front section (everything but page slots and the CRC32): one
    # segment as written, parsed in place.
    data = image.take(0, page_pos or image.length - 4)
    page_pos, magic, node_id, height, n_children, n_msgs, lift = (
        _INTERNAL_HEAD.unpack_from(data, 0)
    )
    if magic != MAGIC_INTERNAL:
        raise ValueError("bad internal magic")
    pos = 30 + lift
    prefix = data[30:pos]
    children = list(unpack_from("<%dq" % n_children, data, pos))
    pos += 8 * n_children
    pivots: List[bytes] = []
    for _ in range(n_children - 1):
        end = pos + 2 + (data[pos] | data[pos + 1] << 8)
        pivots.append(prefix + data[pos + 2 : end])
        pos = end
    node = InternalNode(node_id, height, pivots, children)

    msgs: List[Message] = []
    bulk = 0
    msn_max = 0
    head = _MSG_HEAD.unpack_from
    for _ in range(n_msgs):
        tag, msn, klen = head(data, pos)
        end = pos + 11 + klen
        key = prefix + data[pos + 11 : end]
        pos = end
        if msn > msn_max:
            msn_max = msn
        if tag < _MSG_DELETE:  # insert / insert_by_ref
            if aligned:
                vtag, _slot, vlen = _ALIGNED_VALUE.unpack_from(data, pos)
                pos += 9
            else:
                vtag, vlen = _PACKED_VALUE.unpack_from(data, pos)
                pos += 5
            if vtag != _TAG_PAGE:
                value: Value = data[pos : pos + vlen]
                pos += vlen
            elif aligned:  # page slots follow one another in entry order
                value = PageFrame(image.take(page_pos, vlen))
                page_pos += _align(vlen)
            else:
                value = PageFrame(data[pos : pos + vlen])
                pos += vlen
            if vlen >= BULK_VALUE_MIN:
                bulk += vlen
            msgs.append(Insert(key, value, msn))
        elif tag == _MSG_DELETE:
            msgs.append(Delete(key, msn))
        elif tag == _MSG_PATCH:
            offset, dlen = _PATCH_SPAN.unpack_from(data, pos)
            pos += 8 + dlen
            msgs.append(Patch(key, offset, data[pos - dlen : pos], msn))
        elif tag == _MSG_RANGE_DELETE:
            end = pos + 2 + (data[pos] | data[pos + 1] << 8)
            msgs.append(RangeDelete(key, prefix + data[pos + 2 : end], msn))
            pos = end
        else:  # pragma: no cover - defensive
            raise ValueError(f"bad message tag {tag}")

    node.set_buffer(msgs)
    node.msn_max = msn_max
    node.dirty = False
    return node, bulk


# ----------------------------------------------------------------------
def serialize_node(node: Node, aligned: bool, lifting: bool) -> SerializedNode:
    if isinstance(node, LeafNode):
        return serialize_leaf(node, aligned, lifting)
    require(isinstance(node, InternalNode), "serialize_node: unknown node class", detail=type(node).__name__)
    return serialize_internal(node, aligned, lifting)


def decode_node(
    data: Image, aligned: bool, cost_split: Optional[List[int]] = None
) -> Node:
    """Verify and decode one node.  ``cost_split``, if given, receives
    the node's bytes as ``[small, bulk]``: the values of at least
    :data:`BULK_VALUE_MIN` bytes, and everything else."""
    image = as_image(data)
    # Internal nodes start with the page-area offset word.
    if image.take(0, min(4, image.length)) == MAGIC_LEAF:
        node, bulk = _decode_leaf(image, aligned)
    else:
        verify_crc(image)
        node, bulk = _decode_internal(image, aligned)
    if cost_split is not None:
        cost_split[:] = max(0, image.length - bulk), bulk
    return node


class ChecksumError(Exception):
    """Raised when a node or log entry fails its CRC check."""


# ----------------------------------------------------------------------
#: Magic of a compressed on-disk node.  The frame is this, the length
#: of the serialized node (u32) and one zlib stream of it.
COMPRESSED_MAGIC = b"BFCZ"


def frame_compressed(segments: Sequence[bytes]) -> bytes:
    """The compressed on-disk form of a serialized node's segments —
    the one place a node is joined."""
    data = b"".join(segments)
    return COMPRESSED_MAGIC + _U32.pack(len(data)) + compress(data, level=1)


def unframe(extent: Image) -> Tuple[NodeImage, int]:
    """``(serialized node, bytes inflated)`` of an on-disk node extent:
    the extent itself and 0 unless it is a compressed frame.  A frame
    whose stream does not inflate, or not to its recorded length, is a
    corrupt node (:class:`ChecksumError`)."""
    image = as_image(extent)
    if image.take(0, min(4, image.length)) != COMPRESSED_MAGIC:
        return image, 0
    (length,) = _U32.unpack(image.take(4, 4))
    try:
        data = decompress(image.take(8, image.length - 8))
    except ZlibError as exc:
        raise ChecksumError(f"compressed node does not inflate ({exc})") from None
    if len(data) != length:
        raise ChecksumError(f"decompressed length {len(data)} != header {length}")
    return NodeImage(data), length


def verify_crc(data: Image) -> None:
    """Check an internal node against its trailing CRC32, chained over
    its segments."""
    image = as_image(data)
    end = image.length - 4
    if end < 0 or _U32.unpack(image.take(end, 4))[0] != image.crc(0, end):
        raise ChecksumError("node checksum mismatch")
