"""The structural invariants of nodes, block tables and the flash map.

The crash contract — CoW checkpoints plus a WAL over a Bε-tree — rests
on these, and each is stated here once.  Every function yields every
violation it finds as a sentence; two callers read them:

* the runtime sanitizer (:mod:`repro.check.sanitize`) raises the first
  one as a typed error (``TreeInvariantError`` for nodes,
  ``AllocInvariantError`` for block tables and the FTL);
* offline fsck (:mod:`repro.check.fsck`) reports all of them, each
  prefixed with the tree (or ``ftl``) it was found in.

Checks only one caller can make stay with that caller (the fanout
slack needs the live config; decode, CRC and reachability need an
image).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.checkpoint import BlockManager
from repro.core.keys import in_range
from repro.core.node import InternalNode, LeafNode, Node


def _disorder(keys: Sequence[bytes]) -> Optional[int]:
    """Index of the first key not strictly above its predecessor."""
    return next((i for i in range(1, len(keys)) if keys[i - 1] >= keys[i]), None)


def node_faults(
    node: Node, lo: Optional[bytes] = None, hi: Optional[bytes] = None
) -> Iterator[str]:
    """Every violation of the node invariants by ``node``, whose parent
    routes it the keys ``[lo, hi)`` (``None`` = unbounded)."""
    if isinstance(node, InternalNode):
        faults = _internal_faults(node, lo, hi)
    else:
        faults = _leaf_faults(node, lo, hi)
    for fault in faults:
        yield f"node {node.node_id} {fault}"


def _internal_faults(
    node: InternalNode, lo: Optional[bytes], hi: Optional[bytes]
) -> Iterator[str]:
    if node.height < 1:
        yield "internal node with leaf height"
    if len(node.pivots) != len(node.children) - 1:
        yield (
            f"pivot/child arity: {len(node.pivots)} pivots for "
            f"{len(node.children)} children"
        )
    at = _disorder(node.pivots)
    if at is not None:
        yield f"pivots not strictly increasing at {at}"
    if len(set(node.children)) != len(node.children):
        yield "duplicate child id"
    # Kept values are recounted, never trusted: each message's size
    # from its fields, the byte total from those, the point and range
    # indexes (and each key's arrival order) and the per-child
    # partitions (and each child's arrival order and byte total) from
    # the buffer.
    measured = [m.measure() for m in node.buffer]
    resized = [m for m, size in zip(node.buffer, measured) if m.size != size]
    if resized:
        yield f"message size drifted from a recount of its fields: {resized!r}"
    if node.buffer_bytes != sum(measured):
        yield (
            f"buffer_bytes drifted from the summed message sizes: "
            f"{node.buffer_bytes} != {sum(measured)}"
        )
    points: dict = {}
    for msg in node.buffer:
        if not msg.is_range:
            points.setdefault(msg.key, []).append(msg)
    if not (
        node.point_index == points
        and node.range_msgs == [m for m in node.buffer if m.is_range]
        and (node._sorted_keys is None or node._sorted_keys == sorted(points))
    ):
        yield (
            f"buffer index out of sync with the buffer: {len(node.point_index)} "
            f"keys, {len(node.range_msgs)} ranges, {len(node.buffer)} messages"
        )
    if len(node.pivots) == len(node.children) - 1:
        parts: List[list] = [[] for _ in node.children]
        totals = [0] * len(node.children)
        for msg, size in zip(node.buffer, measured):
            for i in msg.route(node.pivots):
                parts[i].append(msg)
                totals[i] += size
        if node.child_buffers != parts:
            yield (
                f"child partitions out of sync with the buffer: "
                f"{list(map(len, node.child_buffers))} messages per child, "
                f"{list(map(len, parts))} routed"
            )
        elif node.child_bytes != totals:
            yield (
                f"child byte totals drifted from the partitions' summed "
                f"sizes: {node.child_bytes} != {totals}"
            )
    newer = [m.msn for m in node.buffer if m.msn > node.msn_max]
    if newer:
        yield f"buffered message newer than msn_max {node.msn_max}: {newer[:4]}"
    for pivot in node.pivots:
        if not in_range(pivot, lo, hi):
            yield f"pivot {pivot!r} outside its routing range [{lo!r}, {hi!r})"
    for msg in node.buffer:
        if not msg.touches(lo, hi):
            if msg.is_range:
                what = f"range [{msg.start!r}, {msg.end!r})"
            else:
                what = f"point {msg.key!r}"
            yield (
                f"buffered {what} message outside its routing range "
                f"[{lo!r}, {hi!r})"
            )


def _leaf_faults(
    leaf: LeafNode, lo: Optional[bytes], hi: Optional[bytes]
) -> Iterator[str]:
    if leaf.height != 0:
        yield "leaf node with internal height"
    if not leaf.basements:
        yield "leaf with no basements"
    prev: Optional[bytes] = None
    for idx, basement in enumerate(leaf.basements):
        if basement.loaded:
            keys: List[bytes] = basement.keys
            if not len(keys) == len(basement.values) == len(basement.msns):
                yield f"basement {idx} column lengths disagree"
            at = _disorder(keys)
            if at is not None:
                yield f"basement {idx} keys not strictly increasing at {at}"
            pairs = sum(basement.pair_size(k, v) for k, v in basement.items())
            if basement.nbytes != pairs:
                yield (
                    f"basement {idx} nbytes drifted from the summed pair "
                    f"sizes: {basement.nbytes} != {pairs}"
                )
        else:  # a stub knows its first key from the leaf header
            keys = [] if basement.stub_first_key is None else [basement.stub_first_key]
        if not keys:
            continue
        if prev is not None and prev >= keys[0]:
            yield f"basements overlap or are out of order at basement {idx}"
        for key in (keys[0], keys[-1]):
            if not in_range(key, lo, hi):
                yield f"leaf key {key!r} outside its routing range [{lo!r}, {hi!r})"
        prev = keys[-1]


#: ``(offset, aligned length, what)`` of one extent.
Span = Tuple[int, int, str]
_QUEUED = "TRIM-queued extent"


def blockman_faults(blockman: BlockManager) -> Iterator[str]:
    """Every extent list of a block table: each extent non-empty and
    inside the file; the table, the free list and the deferred frees
    pairwise disjoint (each byte has one owner); and no extent queued
    for TRIM overlapping a live or a deferred copy (it is free space,
    so it lies inside the free list).

    A deferred extent is free as of the next commit, which is how an
    image's free list shows it, so it is named a free extent too."""
    size = blockman.file_size
    table: List[Span] = []
    for node_id, (off, ln) in blockman.table.items():
        if ln <= 0 or off < 0 or off + ln > size:
            yield f"node {node_id} extent ({off}, {ln}) out of file bounds ({size})"
        else:
            table.append((off, blockman._align(ln), f"node {node_id}"))
    free: List[Span] = []
    deferred: List[Span] = []
    for spans, extents in ((free, blockman.free_list), (deferred, blockman.deferred_free)):
        for off, ln in extents:
            if off < 0 or off + ln > size:
                yield f"free extent ({off}, {ln}) out of file bounds ({size})"
            else:
                spans.append((off, ln, "free extent"))
    yield from _overlaps(table + free + deferred, "double allocation or double free")
    queued = [(off, ln, _QUEUED) for off, ln in blockman._trim_pending]
    yield from _overlaps(table + deferred + queued, "TRIM of a readable copy", _QUEUED)


def _overlaps(spans: List[Span], why: str, only: str = "") -> Iterator[str]:
    """Each pair of neighbouring spans in offset order that overlap
    (any overlap makes some neighbouring pair overlap); with ``only``,
    just the pairs one of which is named ``only``."""
    spans = sorted(spans)
    for prev, cur in zip(spans, spans[1:]):
        if prev[0] + prev[1] > cur[0] and only in (prev[2], cur[2], ""):
            yield (
                f"overlapping extents ({why}): {prev[2]} at "
                f"({prev[0]}, {prev[1]}) overlaps {cur[2]} at {cur[0]}"
            )


def ftl_faults(store, ftl) -> Iterator[str]:
    """The FTL's valid-page conservation law, and every page fully
    covered by stored extents mapped: the extent store (functional
    model) and the FTL (accounting model) describe the same bytes."""
    valid, mapped = ftl.valid_pages(), ftl.mapped_pages()
    if valid != mapped:
        yield f"valid-page conservation violated ({valid} valid, {mapped} mapped)"
    page = ftl.geom.page_size
    missing = [
        lpn
        for off, segments in store.snapshot()
        for lpn in range((off + page - 1) // page, (off + sum(map(len, segments))) // page)
        if lpn not in ftl.map
    ]
    if missing:
        yield (
            f"{len(missing)} fully stored page(s) missing from the FTL map "
            f"(store/FTL divergence), first lpn {missing[0]}"
        )
