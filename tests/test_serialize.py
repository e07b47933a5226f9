"""Round-trip, byte-identity and corruption tests for node serialization."""

import hashlib
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    Delete,
    Insert,
    InsertByRef,
    PageFrame,
    Patch,
    RangeDelete,
    value_len,
)
from repro.core.node import BasementNode, InternalNode, LeafNode
from repro.core.serialize import (
    ChecksumError,
    decode_basement,
    decode_leaf_header,
    decode_node,
    leaf_header_len,
    serialize_node,
    verify_crc,
)


def make_leaf(n=30, page_values=False):
    leaf = LeafNode(7)
    for i in range(n):
        if page_values and i % 3 == 0:
            value = PageFrame(bytes([i % 256]) * 4096)
        else:
            value = b"value-%03d" % i
        leaf.apply(Insert(b"/common/prefix/k%03d" % i, value, msn=i + 1), 2048)
    return leaf


def make_internal():
    node = InternalNode(9, 1, [b"/p/g", b"/p/q"], [100, 101, 102])
    node.enqueue(Insert(b"/p/a", b"small", msn=1))
    node.enqueue(Delete(b"/p/h", msn=2))
    node.enqueue(Patch(b"/p/r", 8, b"patchbytes", msn=3))
    node.enqueue(RangeDelete(b"/p/b", b"/p/c", msn=4))
    node.enqueue(Insert(b"/p/z", PageFrame(b"\x5a" * 4096), msn=5))
    return node


def joined(ser):
    """A serialized node's segments, joined: the image as one buffer."""
    return b"".join(ser.segments)


def assert_same_pairs(a: LeafNode, b: LeafNode):
    pa = [(k, bytes(v.data) if isinstance(v, PageFrame) else v, m)
          for bs in a.basements for k, v, m in bs.items_with_msn()]
    pb = [(k, bytes(v.data) if isinstance(v, PageFrame) else v, m)
          for bs in b.basements for k, v, m in bs.items_with_msn()]
    assert pa == pb


@pytest.mark.parametrize("aligned", [False, True])
@pytest.mark.parametrize("lifting", [False, True])
class TestLeafRoundtrip:
    def test_roundtrip(self, aligned, lifting):
        leaf = make_leaf(page_values=True)
        ser = serialize_node(leaf, aligned=aligned, lifting=lifting)
        back = decode_node(ser.segments, aligned=aligned)
        assert isinstance(back, LeafNode)
        assert back.node_id == 7
        assert_same_pairs(leaf, back)

    def test_empty_leaf(self, aligned, lifting):
        leaf = LeafNode(3)
        ser = serialize_node(leaf, aligned=aligned, lifting=lifting)
        back = decode_node(ser.segments, aligned=aligned)
        assert back.pair_count() == 0


@pytest.mark.parametrize("aligned", [False, True])
class TestInternalRoundtrip:
    def test_roundtrip(self, aligned):
        node = make_internal()
        ser = serialize_node(node, aligned=aligned, lifting=True)
        back = decode_node(ser.segments, aligned=aligned)
        assert isinstance(back, InternalNode)
        assert back.pivots == node.pivots
        assert back.children == node.children
        assert len(back.buffer) == len(node.buffer)
        assert [m.msn for m in back.buffer] == [1, 2, 3, 4, 5]
        patch = back.buffer[2]
        assert isinstance(patch, Patch)
        assert patch.offset == 8 and patch.data == b"patchbytes"
        rd = back.buffer[3]
        assert isinstance(rd, RangeDelete)
        assert (rd.start, rd.end) == (b"/p/b", b"/p/c")
        page_msg = back.buffer[4]
        assert bytes(page_msg.value.data) == b"\x5a" * 4096

    def test_insert_by_ref_persists_page_contents(self, aligned):
        node = InternalNode(4, 1, [], [1])
        frame = PageFrame(b"\xab" * 4096)
        node.enqueue(InsertByRef(b"/k", frame, msn=1))
        ser = serialize_node(node, aligned=aligned, lifting=True)
        back = decode_node(ser.segments, aligned=aligned)
        value = back.buffer[0].value
        assert bytes(value.data if isinstance(value, PageFrame) else value) == b"\xab" * 4096


class TestChecksums:
    def test_corruption_detected(self):
        leaf = make_leaf()
        ser = serialize_node(leaf, aligned=False, lifting=True)
        corrupted = bytearray(joined(ser))
        corrupted[len(corrupted) // 2] ^= 0xFF
        with pytest.raises(ChecksumError):
            decode_node(bytes(corrupted), aligned=False)

    def test_verify_crc_ok(self):
        ser = serialize_node(make_internal(), aligned=False, lifting=True)
        verify_crc(ser.segments)  # no raise


class TestAlignedLayout:
    def test_pages_land_on_aligned_offsets(self):
        leaf = make_leaf(page_values=True)
        ser = serialize_node(leaf, aligned=True, lifting=True)
        # Every full page's contents must be locatable at a 4 KiB
        # boundary in the serialized image.
        payload = joined(ser)
        found = 0
        for off in range(0, len(payload) - 4096, 4096):
            chunk = payload[off : off + 4096]
            if len(set(chunk)) == 1 and chunk[0] != 0:
                found += 1
        assert found >= 5
        assert ser.ref_bytes > 0
        assert ser.copied_bytes == 0

    def test_packed_layout_reports_copies(self):
        leaf = make_leaf(page_values=True)
        ser = serialize_node(leaf, aligned=False, lifting=True)
        assert ser.copied_bytes > 0
        assert ser.ref_bytes == 0


class TestPartialLeafAccess:
    def test_header_and_single_basement_decode(self):
        leaf = make_leaf(50)
        ser = serialize_node(leaf, aligned=False, lifting=True)
        header = decode_leaf_header(joined(ser)[:8192], len(joined(ser)))
        assert header.node_id == 7
        assert header.basement_extents == ser.basement_extents
        assert len(header.basement_extents) == len(leaf.basements)
        assert header.basement_first_keys[0] == leaf.basements[0].first_key()
        # Decode just the second basement from its extent slice.
        off, ln, _crc = extent = header.basement_extents[1]
        basement, bulk = decode_basement(
            joined(ser)[off : off + ln], 0, 1, extent, header.lift_prefix, aligned=False
        )
        assert list(basement.items()) == list(leaf.basements[1].items())
        assert bulk == 0

    def test_lifting_shrinks_serialization(self):
        leaf = make_leaf(40)
        lifted = serialize_node(leaf, aligned=False, lifting=True)
        unlifted = serialize_node(leaf, aligned=False, lifting=False)
        assert lifted.length < unlifted.length


# ----------------------------------------------------------------------
# Byte identity: the on-disk format is pinned.  The internal digests
# below were taken from the codec as of PR 15 (the parent of the
# single-pass rewrite), the leaf ones as of PR 20 (checksums moved into
# the leaf header); a codec change that moves any of them changed the
# format or a simulated charge, and must say so.
# ----------------------------------------------------------------------
def _page(byte, n=4096):
    return PageFrame(bytes([byte]) * n)


def _leaf(node_id, pairs, basement_size=2048):
    leaf = LeafNode(node_id)
    for i, (key, value) in enumerate(pairs):
        leaf.apply(Insert(key, value, msn=i + 1), basement_size)
    return leaf


def _internal(node_id, height, pivots, children, msgs):
    node = InternalNode(node_id, height, list(pivots), list(children))
    for msg in msgs:
        node.enqueue(msg)
    return node


def corpus():
    """``name -> node``: every branch of the codec, built deterministically."""
    out = {}
    out["leaf_small"] = _leaf(
        7, [(b"/common/prefix/k%03d" % i, b"value-%03d" % i) for i in range(30)]
    )
    out["leaf_pages"] = _leaf(
        8,
        [
            (b"/data/f%02d/%08d" % (i // 8, i % 8), _page(i) if i % 3 else b"meta-%d" % i)
            for i in range(40)
        ],
        basement_size=16384,
    )
    # Inline values around the 512-byte cost split and the 4 KiB page
    # threshold, a short (file-tail) frame and a two-page frame.
    sizes = [0, 1, 511, 512, 513, 4095, 4096, 4097, 9000]
    out["leaf_inline_sizes"] = _leaf(
        9,
        [(b"/v/%05d" % n, bytes([n % 251]) * n) for n in sizes]
        + [(b"/w/tail", _page(0x77, 100)), (b"/w/two", _page(0x78, 8192))],
        basement_size=8192,
    )
    out["leaf_empty"] = LeafNode(3)
    gaps = _leaf(10, [(b"/g/%03d" % i, b"x" * (i * 7 % 90)) for i in range(60)], 512)
    gaps.basements[0:0] = [BasementNode()]
    gaps.basements[3:3] = [BasementNode(), BasementNode()]
    gaps.basements.append(BasementNode())
    out["leaf_empty_basements"] = gaps
    out["leaf_no_prefix"] = _leaf(11, [(b"a", b"1"), (b"b", _page(1)), (b"zz", b"")])
    out["leaf_key_is_prefix"] = _leaf(
        12, [(b"/a", b"dir"), (b"/a/b", b"f"), (b"/a/c", _page(2))], 64
    )
    out["leaf_one_key"] = _leaf(13, [(b"/only", b"one")])
    out["internal_all_kinds"] = _internal(
        20, 1, [b"/p/g", b"/p/q"], [100, 101, 102],
        [
            Insert(b"/p/a", b"small", msn=1),
            Delete(b"/p/h", msn=2),
            Patch(b"/p/r", 8, b"patchbytes", msn=3),
            RangeDelete(b"/p/b", b"/p/c", msn=4),
            Insert(b"/p/z", _page(0x5A), msn=5),
            InsertByRef(b"/p/y", _page(0x5B), msn=6),
            Insert(b"/p/big", b"\x42" * 5000, msn=7),
            Insert(b"/p/mid", b"\x43" * 512, msn=8),
            Patch(b"/p/r", 0, b"\x44" * 600, msn=9),
            InsertByRef(b"/p/tail", _page(0x5C, 123), msn=10),
            Insert(b"/p/empty", b"", msn=11),
            RangeDelete(b"/p", b"/q", msn=12),
        ],
    )
    out["internal_no_msgs"] = _internal(21, 2, [b"m"], [5, 6], [])
    out["internal_one_child"] = _internal(22, 1, [], [1], [Delete(b"k", msn=3)])
    out["internal_many_pages"] = _internal(
        23, 1, [b"/f/%04d" % (i * 10) for i in range(1, 8)], list(range(200, 208)),
        [
            (Insert if i % 2 else InsertByRef)(b"/f/%04d" % i, _page(i), msn=100 + i)
            for i in range(70)
        ],
    )
    return out


LAYOUTS = [(a, l) for a in (False, True) for l in (False, True)]

PINNED = {
    "leaf_small": "b774f65001ba25969e9d514d30f21fb64fbcc09c2574cf137f7f174754bb20bf",
    "leaf_pages": "7f0680d2134ded5de4de0f23bdb9ea1b60ab856fad5483e95bc75892851f9764",
    "leaf_inline_sizes": "cab1d45f4b17dbdb95b785064a32ff4a79ea6c2dcd458d90361d6a3a1e2f88c4",
    "leaf_empty": "2648b5621768df9c0d6409d9bb8b5c364741e9af207a9214b325ad71259ff962",
    "leaf_empty_basements": "d2374bcac9dc40543233ea114b3e7cef557e3fc51766e92ff69702149e35e1a4",
    "leaf_no_prefix": "f296a408b833f66e08ff2ef0d2c64b995911e10979ff633572ce753d49f32133",
    "leaf_key_is_prefix": "d38378c12bf92afb6daf61fc1a65a48fa650391d1c8c8dee0f16edf558f11841",
    "leaf_one_key": "b673507020faf9312b2263b52be1fb5cfe9aafafaccfa271d96475894ab61621",
    "internal_all_kinds": "011c96e798fe35a0814b130fcceff57bbce73212b8abeae6e442d34a31f7c7a6",
    "internal_no_msgs": "592a830a47a88a97d6d99d8eb51e84a15b0088d0783d7274ac8dffd1788cc400",
    "internal_one_child": "a7cfe39e182dea047c7104096967fa754ebb967bf3139d976cc67d8dc16e62a5",
    "internal_many_pages": "b9d49d6e39c8bfface0b28a2246f5ff9dbeabfc6ef40c275cb45845cf1900075",
}


def digest(node):
    """sha256 over the four (layout, lifting) encodings and the byte
    counts the tree charges simulated time for."""
    h = hashlib.sha256()
    for aligned, lifting in LAYOUTS:
        ser = serialize_node(node, aligned=aligned, lifting=lifting)
        assert ser.length == len(joined(ser))
        h.update(
            repr(
                (ser.small_bytes, ser.copied_bytes, ser.ref_bytes,
                 ser.header_len, list(ser.basement_extents), ser.length)
            ).encode()
        )
        h.update(joined(ser))
    return h.hexdigest()


def test_corpus_covers_the_pinned_names():
    assert set(corpus()) == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_encoded_bytes_are_pinned(name):
    assert digest(corpus()[name]) == PINNED[name]


# ----------------------------------------------------------------------
# Round trips.  ``canon`` is a node as plain data; two things do not
# survive a trip by design and are normalised: an InsertByRef comes
# back as an Insert of a frame, and the aligned layout returns every
# value of a page or more as a frame.
# ----------------------------------------------------------------------
def canon(node, typed=True):
    def val(v):
        frame = isinstance(v, PageFrame)
        return (frame and typed, bytes(v.data) if frame else v)

    if isinstance(node, LeafNode):
        assert all(
            b.nbytes == sum(b.pair_size(k, v) for k, v in b.items())
            for b in node.basements
        )
        return ("leaf", node.node_id, node.height, [
            (b.keys, [val(v) for v in b.values], b.msns) for b in node.basements
        ])
    msgs = []
    for m in node.buffer:
        fields = {"key": getattr(m, "key", None), "msn": m.msn}
        if isinstance(m, RangeDelete):
            fields.update(start=m.start, end=m.end)
        elif isinstance(m, Patch):
            fields.update(offset=m.offset, data=m.data)
        elif isinstance(m, (Insert, InsertByRef)):
            fields.update(value=val(m.value))
        kind = "insert" if isinstance(m, InsertByRef) else m.kind
        msgs.append((kind, sorted(fields.items())))
    assert node.buffer_bytes == sum(m.nbytes() for m in node.buffer)
    assert node.nbytes() - node.buffer_bytes == (
        sum(len(p) + 8 for p in node.pivots) + 8 * len(node.children)
    )
    assert node.msn_max == max((m.msn for m in node.buffer), default=0)
    assert sum(map(len, node.point_index.values())) + len(node.range_msgs) == len(
        node.buffer
    )
    return ("internal", node.node_id, node.height, node.pivots, node.children, msgs)


def old_cost_split(node, total):
    """The value walk ``BeTree._decode_cost_split`` did after every
    decode until the decoder took it over: the oracle for the split
    ``decode_node`` reports."""
    if isinstance(node, LeafNode):
        values = 0
        for basement in node.basements:
            for v in basement.values:
                n = value_len(v)
                if n >= 512:
                    values += n
        return [max(0, total - values), values]
    values = 0
    for msg in node.buffer:
        v = getattr(msg, "value", None)
        if v is not None:
            n = value_len(v)
            if n >= 512:
                values += n
    return [max(0, total - values), values]


def check_roundtrip(node, aligned, lifting):
    ser = serialize_node(node, aligned=aligned, lifting=lifting)
    first = joined(ser)
    split = []
    # From the segments the device store would hold, as a node read
    # hands them over; the joined image decodes to the same node.
    back = decode_node(ser.segments, aligned=aligned, cost_split=split)
    assert canon(decode_node(first, aligned=aligned)) == canon(back)
    assert not back.dirty
    assert canon(back, typed=False) == canon(node, typed=False)
    assert split == old_cost_split(back, len(first))
    # Re-encoding what was decoded gives the bytes back, but for the
    # by-ref tag; from there on it is a fixed point, types included.
    second = joined(serialize_node(back, aligned=aligned, lifting=lifting))
    by_ref = isinstance(node, InternalNode) and any(
        isinstance(m, InsertByRef) for m in node.buffer
    )
    assert by_ref or second == first
    again = decode_node(second, aligned=aligned)
    assert canon(again) == canon(back)
    assert joined(serialize_node(again, aligned=aligned, lifting=lifting)) == second


@pytest.mark.parametrize("aligned,lifting", LAYOUTS)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_corpus_roundtrips(name, aligned, lifting):
    check_roundtrip(corpus()[name], aligned, lifting)


@pytest.mark.parametrize("aligned", [False, True])
def test_partial_load_decodes_each_basement_as_the_full_decode_does(aligned):
    for name, node in corpus().items():
        if not isinstance(node, LeafNode):
            continue
        data = joined(serialize_node(node, aligned=aligned, lifting=True))
        header = decode_leaf_header(data[: leaf_header_len(data[:26], len(data))], len(data))
        split = []
        whole = decode_node(data, aligned=aligned, cost_split=split)
        bulk = 0
        for i, (extent, want) in enumerate(zip(header.basement_extents, whole.basements)):
            off, ln, _crc = extent
            # From its own slice and in place, as a run read would hold it.
            got, b = decode_basement(data[off : off + ln], 0, i, extent, header.lift_prefix, aligned)
            again, _b = decode_basement(data, off, i, extent, header.lift_prefix, aligned)
            bulk += b
            assert (got.keys, got.msns, got.nbytes) == (want.keys, want.msns, want.nbytes)
            assert (again.keys, again.msns) == (want.keys, want.msns)
            assert [bytes(v.data) if isinstance(v, PageFrame) else v for v in got.values] == [
                bytes(v.data) if isinstance(v, PageFrame) else v for v in want.values
            ]
            # The basement's CRC covers its whole extent, padding included.
            for at in (0, ln // 2, ln - 1):
                with pytest.raises(ChecksumError, match=f"basement {i} "):
                    decode_basement(_flip(data, 8 * (off + at)), off, i, extent, header.lift_prefix, aligned)
        # The parts charge what the whole charges.
        assert split == [len(data) - bulk, bulk]
        assert header.header_len + sum(ln for _o, ln, _c in header.basement_extents) == len(data)


keys = st.builds(
    lambda prefix, tail: prefix + tail,
    st.sampled_from([b"", b"/d/", b"/deep/er/prefix/"]),
    st.binary(min_size=1, max_size=12),
)
values = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([511, 512, 4095, 4096, 5000]).map(lambda n: b"\x11" * n),
    st.sampled_from([100, 4096]).map(lambda n: ("frame", b"\x22" * n)),
)


def _value(v):
    return PageFrame(v[1]) if isinstance(v, tuple) else v


@st.composite
def leaves(draw):
    mapping = draw(st.dictionaries(keys, values, max_size=25))
    leaf = _leaf(
        1,
        [(k, _value(v)) for k, v in sorted(mapping.items())],
        basement_size=draw(st.sampled_from([64, 1024, 8192])),
    )
    for at in draw(st.lists(st.integers(0, 6), max_size=2)):
        leaf.basements.insert(min(at, len(leaf.basements)), BasementNode())
    return leaf


@st.composite
def internals(draw):
    pivots = sorted(draw(st.sets(keys, max_size=5)))
    node = InternalNode(2, draw(st.integers(1, 3)), pivots, list(range(10, 11 + len(pivots))))
    kinds = st.sampled_from(["insert", "by_ref", "delete", "patch", "range"])
    for msn, kind in enumerate(draw(st.lists(kinds, max_size=12)), start=1):
        key = draw(keys)
        if kind == "insert":
            node.enqueue(Insert(key, _value(draw(values)), msn))
        elif kind == "by_ref":
            node.enqueue(InsertByRef(key, PageFrame(b"\x33" * draw(st.sampled_from([9, 4096]))), msn))
        elif kind == "delete":
            node.enqueue(Delete(key, msn))
        elif kind == "patch":
            node.enqueue(Patch(key, draw(st.integers(0, 5000)), draw(st.binary(max_size=700)), msn))
        else:
            node.enqueue(RangeDelete(key, key + draw(st.binary(min_size=1, max_size=3)), msn))
    return node


@settings(max_examples=60, deadline=None)
@given(st.one_of(leaves(), internals()), st.booleans(), st.booleans())
def test_roundtrip_property(node, aligned, lifting):
    check_roundtrip(node, aligned, lifting)


# ----------------------------------------------------------------------
# Corruption: one flipped bit, anywhere, fails the checksum.
# ----------------------------------------------------------------------
def _flip(data, bit):
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.mark.parametrize("aligned", [False, True])
def test_every_single_bit_flip_of_a_small_node_is_detected(aligned):
    for name in ("leaf_one_key", "internal_one_child"):
        data = joined(serialize_node(corpus()[name], aligned=aligned, lifting=True))
        for bit in range(8 * len(data)):
            with pytest.raises(ChecksumError):
                decode_node(_flip(data, bit), aligned=aligned)


@pytest.mark.parametrize("aligned", [False, True])
def test_a_leaf_header_is_verified_before_it_is_parsed(aligned):
    """Whatever is wrong with a leaf's header region — damage, a length
    the extent cannot hold, a well-formed table that does not tile the
    extent — is a ``ChecksumError``, never a parse error."""
    data = joined(serialize_node(corpus()["leaf_pages"], aligned=aligned, lifting=True))
    n = leaf_header_len(data, len(data))
    assert struct.unpack_from("<I", data, 22) == (n,) and n % 4096 == (0 if aligned else n)

    def put(at, fmt, value, blob=data):
        return blob[:at] + struct.pack(fmt, value) + blob[at + struct.calcsize(fmt) :]

    def resealed(blob):  # a lie under a valid CRC
        return put(n - 4, "<I", zlib.crc32(blob[: n - 4]), blob)

    (lift,) = struct.unpack_from("<H", data, 20)
    row = 26 + lift  # basement 0: offset, length, CRC32, first-key length
    bad = {
        "shorter than a fixed head": data[:20],
        "header length past the extent": put(22, "<I", len(data) + 1),
        "header length inside the fixed head": put(22, "<I", 29),
        "header length short of the region": put(22, "<I", n - 1),
        "extent shorter than the table says": data[:-1],
        "a basement that starts late": resealed(put(row, "<I", n + 1)),
        "a basement that ends early": resealed(
            put(row + 4, "<I", struct.unpack_from("<I", data, row + 4)[0] - 1)
        ),
    }
    for what, blob in bad.items():
        with pytest.raises(ChecksumError):
            decode_leaf_header(blob, len(blob))
            pytest.fail(what)
        with pytest.raises(ChecksumError):
            decode_node(blob, aligned=aligned)
            pytest.fail(what)
    # The head read of a partial load holds the region, not the extent.
    assert decode_leaf_header(data[:n], len(data)) == decode_leaf_header(data, len(data))
    with pytest.raises(ChecksumError):
        decode_leaf_header(data[: n - 1], len(data))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PINNED)), st.sampled_from(LAYOUTS), st.data())
def test_a_bit_flip_anywhere_in_any_node_is_detected(name, layout, data):
    aligned, lifting = layout
    raw = joined(serialize_node(corpus()[name], aligned=aligned, lifting=lifting))
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    with pytest.raises(ChecksumError):
        decode_node(_flip(raw, bit), aligned=aligned)
    if name.startswith("internal"):  # a leaf has no trailer to check
        with pytest.raises(ChecksumError):
            verify_crc(_flip(raw, bit))
