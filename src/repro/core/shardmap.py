"""Namespace partitioning over full-path keys.

The :class:`ShardMap` (re-exported by :mod:`repro.shard`) decides, for every full path, which of the N
Bε-tree volumes owns its metadata entry and data blocks: a path is
owned by ``mix(crc32(parent_dir(path))) % N``.  Hashing the *parent*
(not the path itself) colocates all entries of one directory on one
shard, so ``readdir`` and the VFS dentry walk stay single-shard while
sibling directories spread out.  The splitmix-style finalizer matters:
crc32 is GF(2)-linear, so sibling names differing in one digit produce
crc deltas that can cancel in the low bits — ``crc32 % 4`` puts all of
``/mail/folder00..03/cur`` on one shard.  Avalanching first breaks the
linearity.

It sits below the northbound, which routes every operation of every
mount through it: with one volume it answers 0 before it hashes.
Routing is a pure function of ``shards`` — no clock charges, no hidden
state — which is what makes an N=1 sharded mount bit-identical to an
unsharded one and lets a re-mount rebuild the map from its shard
count alone.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache


def _mix(h: int) -> int:
    """splitmix64 finalizer: avalanche a crc32 so structured sibling
    names (GF(2)-linear deltas) spread over the low bits too."""
    h &= 0xFFFFFFFFFFFFFFFF
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 31)


@lru_cache(maxsize=4096)
def _hash_owner(dirpath: str, shards: int) -> int:
    # Memoized per directory: every entry of one directory routes by
    # the same (dirpath, shards) pair, and the answer never changes.
    return _mix(zlib.crc32(dirpath.encode("utf-8", "surrogateescape"))) % shards


def parent_dir(path: str) -> str:
    """Directory containing ``path`` ("" for a bare relative name).

    Trailing and duplicate separators collapse (``"//a"`` and ``"/a"``
    share the parent ``"/"``) so routing agrees with
    :meth:`ShardMap.owner_of_children`'s directory normalization.
    """
    trimmed = path.rstrip("/") or "/"
    cut = trimmed.rfind("/")
    if cut < 0:
        return ""
    if cut == 0:
        return "/"
    return trimmed[:cut].rstrip("/") or "/"


@dataclass(frozen=True)
class ShardMap:
    """Total, stable routing of full paths to volume indexes."""

    shards: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def owner_of_entry(self, path: str) -> int:
        """Shard owning ``path``'s metadata entry and data blocks."""
        if self.shards == 1:
            return 0
        return _hash_owner(parent_dir(path), self.shards)

    def owner_of_key(self, key: bytes) -> int:
        """Route a raw tree key (path, or path + NUL + block number)."""
        sep = key.find(b"\x00")
        raw = key if sep < 0 else key[:sep]
        return self.owner_of_entry(raw.decode("utf-8", "surrogateescape"))

    def owner_of_children(self, path: str) -> int:
        """Shard holding every direct child of directory ``path``.

        Children hash by the directory itself, while the directory's
        own entry hashes by *its* parent — so this is not
        ``owner_of_entry(path)``.
        """
        if self.shards == 1:
            return 0
        return _hash_owner(path.rstrip("/") or "/", self.shards)
