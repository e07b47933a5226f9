"""Namespace partitioning over full-path keys (``repro.shard``).

The :class:`ShardMap` decides, for every full path, which of the N
Bε-tree volumes owns its metadata entry and data blocks.  Two
pluggable policies:

* **hash** — a path is owned by ``mix(crc32(parent_dir(path))) % N``.
  Hashing the *parent* (not the path itself) colocates all entries of
  one directory on one shard, so ``readdir`` and the VFS dentry walk
  stay single-shard while sibling directories spread out.  The
  splitmix-style finalizer matters: crc32 is GF(2)-linear, so sibling
  names differing in one digit produce crc deltas that can cancel in
  the low bits — ``crc32 % 4`` puts all of ``/mail/folder00..03/cur``
  on one shard.  Avalanching first breaks the linearity.
* **range** — sorted boundary strings split the key space; a path is
  owned by the boundary interval it falls in.  Because full-path keys
  sort parents immediately before children (the paper's lexicographic
  locality), an entire directory subtree occupies a contiguous key
  range and a directory scan stays single-shard unless a boundary
  happens to cut through it.

Routing is a pure function of the map's fields — no clock charges, no
hidden state — which is what makes an N=1 sharded mount bit-identical
to an unsharded one and keeps re-mounted maps
(:meth:`ShardMap.from_dict`) routing exactly like the original.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

MODES = ("hash", "range")

#: Printable span used by the default range boundaries: paths start
#: with "/" and the next character is almost always in [0x21, 0x7E].
_FIRST, _LAST = 0x21, 0x7E


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
    :meth:`ShardMap.children_span`'s directory normalization.
    """
    trimmed = path.rstrip("/") or "/"
    cut = trimmed.rfind("/")
    if cut < 0:
        return ""
    if cut == 0:
        return "/"
    return trimmed[:cut].rstrip("/") or "/"


def default_boundaries(shards: int) -> Tuple[str, ...]:
    """Evenly split the "/"-rooted printable key space into N ranges."""
    span = _LAST - _FIRST
    if shards > span:
        raise ValueError(f"range mode supports at most {span} shards")
    return tuple(
        "/" + chr(_FIRST + (span * i) // shards) for i in range(1, shards)
    )


@dataclass(frozen=True)
class ShardMap:
    """Total, stable routing of full paths to volume indexes."""

    shards: int
    mode: str = "hash"
    #: Range mode only: ``shards - 1`` sorted boundary strings; shard i
    #: owns paths in ``[boundaries[i-1], boundaries[i])``.
    boundaries: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.mode not in MODES:
            raise ValueError(f"unknown shard mode {self.mode!r}")
        if self.mode == "range":
            if len(self.boundaries) != self.shards - 1:
                raise ValueError(
                    f"range mode needs {self.shards - 1} boundaries, "
                    f"got {len(self.boundaries)}"
                )
            if list(self.boundaries) != sorted(set(self.boundaries)):
                raise ValueError("boundaries must be strictly increasing")
        elif self.boundaries:
            raise ValueError("hash mode takes no boundaries")

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, shards: int, mode: str = "hash") -> "ShardMap":
        if mode == "range":
            return cls(shards, "range", default_boundaries(shards))
        return cls(shards, mode)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def owner_of_entry(self, path: str) -> int:
        """Shard owning ``path``'s metadata entry and data blocks."""
        if self.shards == 1:
            return 0
        if self.mode == "hash":
            return _hash_owner(parent_dir(path), self.shards)
        return bisect_right(self.boundaries, path)

    def owner_of_key(self, key: bytes) -> int:
        """Route a raw tree key (path, or path + NUL + block number)."""
        sep = key.find(b"\x00")
        raw = key if sep < 0 else key[:sep]
        return self.owner_of_entry(raw.decode("utf-8", "surrogateescape"))

    def children_span(self, path: str) -> List[int]:
        """Shards that may hold direct children of directory ``path``.

        Hash mode: exactly one (children hash their common parent).
        Range mode: the contiguous run of shards whose ranges intersect
        the children prefix, in lexicographic — i.e. readdir — order.
        """
        dirpath = path.rstrip("/") or "/"
        if self.shards == 1:
            return [0]
        if self.mode == "hash":
            return [_hash_owner(dirpath, self.shards)]
        prefix = dirpath if dirpath.endswith("/") else dirpath + "/"
        lo = bisect_right(self.boundaries, prefix)
        hi = bisect_right(self.boundaries, prefix + "\uffff" * 16)
        return list(range(lo, hi + 1))

    # ------------------------------------------------------------------
    # Serialization (re-mount stability)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "mode": self.mode,
            "boundaries": list(self.boundaries),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardMap":
        return cls(
            int(data["shards"]),  # type: ignore[arg-type]
            str(data["mode"]),
            tuple(data["boundaries"]),  # type: ignore[arg-type]
        )
