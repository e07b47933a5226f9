"""Key encoding and ordering helpers.

BetrFS indexes everything by **full path**.  Keys are plain ``bytes``
with memcmp ordering, and the critical property is that the subtree
rooted at directory ``/a/b`` occupies the contiguous key range of all
keys with prefix ``/a/b/``.  This module provides:

* meta-index and data-index key construction;
* prefix-range computation (``prefix_range``) used by range-delete and
  range-rename;
* common-prefix computation used by lifting-style serialization.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

#: Separator between the path and the block number in data-index keys.
#: 0x00 cannot appear inside a path component, so (path, block) tuples
#: sort first by path and then by block number.
BLOCK_SEP = b"\x00"

#: Largest possible key — used as an exclusive upper bound sentinel.
MAX_KEY = b"\xff" * 64


def meta_key(path: str) -> bytes:
    """Key of ``path`` in the metadata index."""
    return path.encode("utf-8")


def data_key(path: str, block: int) -> bytes:
    """Key of 4 KiB block ``block`` of ``path`` in the data index."""
    return path.encode("utf-8") + BLOCK_SEP + struct.pack(">I", block)


def data_key_block(key: bytes) -> int:
    """Recover the block number from a data-index key."""
    return struct.unpack(">I", key[-4:])[0]


def data_key_path(key: bytes) -> str:
    """Recover the path from a data-index key."""
    return key[:-5].decode("utf-8")


def prefix_successor(prefix: bytes) -> bytes:
    """The smallest key greater than every key having ``prefix``.

    Computed by incrementing the last non-0xFF byte.  An all-0xFF
    prefix has no successor; we return ``MAX_KEY`` padding instead.
    """
    buf = bytearray(prefix)
    while buf and buf[-1] == 0xFF:
        buf.pop()
    if not buf:
        return prefix + MAX_KEY
    buf[-1] += 1
    return bytes(buf)


def prefix_range(prefix: bytes) -> Tuple[bytes, bytes]:
    """Half-open key range ``[lo, hi)`` covering all keys with ``prefix``."""
    return prefix, prefix_successor(prefix)


def dir_children_prefix(path: str) -> bytes:
    """Prefix covering every descendant of directory ``path``."""
    if path.endswith("/"):
        return path.encode("utf-8")
    return (path + "/").encode("utf-8")


def dir_subtree_range(path: str) -> Tuple[bytes, bytes]:
    """Meta-index range covering a directory's entire subtree.

    Includes every descendant but *not* the directory's own entry
    (matching rmdir semantics: the directory entry itself is removed
    with a point delete).
    """
    return prefix_range(dir_children_prefix(path))


def is_direct_child(parent: str, path: str) -> bool:
    """True if ``path`` is an immediate child of directory ``parent``."""
    prefix = parent if parent.endswith("/") else parent + "/"
    if not path.startswith(prefix):
        return False
    return "/" not in path[len(prefix) :]


def file_blocks_prefix(path: str) -> bytes:
    """Prefix of every data-index key of ``path`` (a rename moves it)."""
    return path.encode("utf-8") + BLOCK_SEP


def file_blocks_range(path: str) -> Tuple[bytes, bytes]:
    """Data-index range covering every block of ``path``."""
    return prefix_range(file_blocks_prefix(path))


def common_prefix(a: bytes, b: bytes) -> bytes:
    """Longest common prefix of two keys."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return a[:i]


def common_prefix_of(keys: List[bytes]) -> bytes:
    """Longest common prefix of a list of keys (empty list -> b'')."""
    if not keys:
        return b""
    lo = min(keys)
    hi = max(keys)
    return common_prefix(lo, hi)


def in_range(key: bytes, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
    """True if ``key`` is in the half-open range [lo, hi); a ``None``
    bound is unbounded (the outermost child ranges of a node)."""
    return (lo is None or lo <= key) and (hi is None or key < hi)


def intersect(
    lo: Optional[bytes],
    hi: Optional[bytes],
    lo2: Optional[bytes],
    hi2: Optional[bytes],
) -> Tuple[Optional[bytes], Optional[bytes]]:
    """``[lo, hi)`` narrowed to ``[lo2, hi2)`` (``None`` = unbounded)."""
    if lo2 is not None and (lo is None or lo < lo2):
        lo = lo2
    if hi2 is not None and (hi is None or hi > hi2):
        hi = hi2
    return lo, hi


def ranges_overlap(
    a_start: bytes, a_end: bytes, b_start: bytes, b_end: bytes
) -> bool:
    """True if half-open ranges [a_start, a_end) and [b_start, b_end) overlap."""
    return a_start < b_end and b_start < a_end


def range_covers(
    outer_start: bytes, outer_end: bytes, inner_start: bytes, inner_end: bytes
) -> bool:
    """True if [outer) fully contains [inner)."""
    return outer_start <= inner_start and inner_end <= outer_end
