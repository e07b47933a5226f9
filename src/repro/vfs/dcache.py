"""Dentry and inode caches.

One combined structure: positive entries map a path to a cached
:class:`~repro.vfs.inode.VInode`; negative entries record confirmed
absence (so repeated failed lookups stay cheap).  BetrFS v0.6's +DC
optimization populates this cache opportunistically from readdir
results (§4), and its rmdir fast path trusts the cached ``nlink``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.vfs.inode import VInode


class DentryCache:
    """Path-indexed dentry + inode cache with LRU eviction."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, Optional[VInode]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0

    def get(self, path: str) -> Optional[VInode]:
        """Positive lookup; None means 'not cached' (see contains)."""
        if path in self._entries:
            self._entries.move_to_end(path)
            entry = self._entries[path]
            if entry is None:
                self.negative_hits += 1
            else:
                self.hits += 1
            return entry
        self.misses += 1
        return None

    def peek(self, path: str) -> Optional[VInode]:
        """The cached inode at ``path``, if any, leaving the LRU order
        and the hit counters as they are."""
        return self._entries.get(path)

    def contains(self, path: str) -> bool:
        return path in self._entries

    def insert(self, inode: VInode) -> None:
        self._entries[inode.path] = inode
        self._entries.move_to_end(inode.path)
        self._evict()

    def insert_negative(self, path: str) -> None:
        self._entries[path] = None
        self._entries.move_to_end(path)
        self._evict()

    def invalidate(self, path: str) -> Optional[VInode]:
        return self._entries.pop(path, None)

    def invalidate_tree(self, prefix: str) -> None:
        """Drop a directory and all cached descendants (rename/rmdir)."""
        pref = prefix if prefix.endswith("/") else prefix + "/"
        doomed = [p for p in self._entries if p == prefix or p.startswith(pref)]
        for p in doomed:
            del self._entries[p]

    def dirty_inodes(self) -> List[VInode]:
        return [e for e in self._entries.values() if e is not None and e.dirty]

    def _evict(self) -> None:
        """Drop LRU clean entries down to capacity.  A dirty inode is
        never dropped but moves to MRU, so the cache exceeds its
        capacity by as many dirty inodes as it finds no clean entry for."""
        for _ in range(len(self._entries) - self.capacity):
            for _ in range(len(self._entries)):
                path, entry = self._entries.popitem(last=False)
                if entry is None or not entry.dirty:
                    break
                self._entries[path] = entry
            else:
                return

    def clear_clean(self) -> None:
        """Drop clean entries (cold-cache experiments)."""
        keep = {
            p: e
            for p, e in self._entries.items()
            if e is not None and e.dirty
        }
        self._entries = OrderedDict(keep)
