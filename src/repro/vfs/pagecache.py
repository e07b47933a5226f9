"""The VFS page cache.

Pages are :class:`~repro.core.messages.PageFrame` objects so they can
be shared by reference with the B-epsilon-tree (§6).  A page handed to
the file system during write-back is marked ``writeback_shared``
(the paper's ``PG_private`` CoW protocol): a subsequent application
write to that page triggers a copy-on-write fault and a fresh frame,
unless the tree has already released its references, in which case the
copy is elided.

Pages belong to their file's :class:`Mapping` (the kernel's
``address_space``), not to its name: the LRU is keyed by (mapping,
index), so a rename hands the mapping to the new name and every page
keeps its place in the LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.check.errors import require
from repro.core.messages import PageFrame
from repro.device.clock import SimClock
from repro.model.costs import CostModel

PAGE_SIZE = 4096


@dataclass
class CachedPage:
    frame: PageFrame
    dirty: bool = False
    #: Shared copy-on-write with the file system (PG_private).
    writeback_shared: bool = False
    dirtied_at: float = 0.0


class Mapping:
    """One file's cached pages (index -> page) under its current name."""

    __slots__ = ("path", "pages")

    def __init__(self, path: str) -> None:
        self.path = path
        self.pages: Dict[int, CachedPage] = {}


class PageCache:
    """Per-mount page cache with dirty tracking and LRU eviction."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        budget_bytes: int,
        dirty_limit_bytes: int,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.budget = budget_bytes
        self.dirty_limit = dirty_limit_bytes
        self._pages: "OrderedDict[Tuple[Mapping, int], CachedPage]" = OrderedDict()
        #: The same pages by file, so per-file operations never walk
        #: the other files' pages.
        self._files: Dict[str, Mapping] = {}
        self.dirty_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cow_copies = 0
        self.cow_elided = 0
        #: Optional sanitizer suite (pure observer; see repro.check).
        self.san = None

    # ------------------------------------------------------------------
    def _mapping(self, path: str) -> Mapping:
        mapping = self._files.get(path)
        if mapping is None:
            mapping = self._files[path] = Mapping(path)
        return mapping

    def lookup(self, path: str, idx: int) -> Optional[CachedPage]:
        self.clock.cpu(self.costs.page_cache_op)
        mapping = self._files.get(path)
        page = None if mapping is None else mapping.pages.get(idx)
        if page is None:
            self.misses += 1
            return None
        self.hits += 1
        self._pages.move_to_end((mapping, idx))
        return page

    def insert_clean(self, path: str, idx: int, frame: PageFrame) -> CachedPage:
        self.clock.cpu(self.costs.page_cache_op)
        page = CachedPage(frame=frame, dirty=False)
        mapping = self._mapping(path)
        old = mapping.pages.get(idx)
        if old is not None and old.dirty:
            self.dirty_bytes -= PAGE_SIZE
        key = (mapping, idx)
        self._pages[key] = page
        self._pages.move_to_end(key)
        mapping.pages[idx] = page
        return page

    def write(self, path: str, idx: int, offset: int, data: bytes) -> CachedPage:
        """Apply an application write to a cached page (CoW-aware).

        ``offset`` is within the page; the caller has already filled
        the page (via read or zeroing) if this is a partial write to an
        existing block.
        """
        mapping = self._mapping(path)
        key = (mapping, idx)
        page = mapping.pages.get(idx)
        self.clock.cpu(self.costs.page_cache_op)
        if page is None:
            frame = PageFrame(b"\x00" * PAGE_SIZE)
            page = CachedPage(frame=frame)
            self._pages[key] = page
            mapping.pages[idx] = page
        elif page.writeback_shared:
            # The frame is referenced by the file system.  If those
            # references are gone, reuse the frame; otherwise CoW.
            if page.frame.refs > 1:
                self.clock.cpu(self.costs.cow_trap)
                self.clock.cpu(self.costs.memcpy(PAGE_SIZE))
                old = page.frame
                page.frame = PageFrame(old.data)
                old.put()
                self.cow_copies += 1
            else:
                self.cow_elided += 1
            page.writeback_shared = False
        # Apply the write into the frame.
        self.clock.cpu(self.costs.memcpy(len(data)))
        buf = page.frame.data
        end = offset + len(data)
        if len(buf) < end:
            buf = buf + b"\x00" * (end - len(buf))
        page.frame.data = buf[:offset] + data + buf[end:]
        if not page.dirty:
            page.dirty = True
            page.dirtied_at = self.clock.now
            self.dirty_bytes += PAGE_SIZE
        self._pages.move_to_end(key)
        return page

    # ------------------------------------------------------------------
    def mark_clean(self, path: str, idx: int, shared: bool) -> None:
        mapping = self._files.get(path)
        page = None if mapping is None else mapping.pages.get(idx)
        if page is None:
            return
        if page.dirty:
            page.dirty = False
            self.dirty_bytes -= PAGE_SIZE
        page.writeback_shared = shared

    def dirty_pages(
        self, path: Optional[str] = None
    ) -> List[Tuple[str, int, CachedPage]]:
        """Dirty pages of one file (in no particular order), or of
        every file, least recently used first."""
        if path is not None:
            mapping = self._files.get(path)
            pages = {} if mapping is None else mapping.pages
            return [(path, idx, pg) for idx, pg in pages.items() if pg.dirty]
        return [(m.path, idx, pg) for (m, idx), pg in self._pages.items() if pg.dirty]

    def over_dirty_limit(self) -> bool:
        return self.dirty_bytes >= self.dirty_limit

    def drop_file(self, path: str) -> None:
        """Invalidate every cached page of ``path`` (unlink/truncate)."""
        mapping = self._files.pop(path, None)
        if mapping is None:
            return
        for idx, page in mapping.pages.items():
            del self._pages[(mapping, idx)]
            if page.dirty:
                self.dirty_bytes -= PAGE_SIZE
            page.frame.put()

    def drop_tree(self, prefix: str) -> None:
        """Invalidate the pages of every file whose name starts with
        ``prefix`` (a directory's subtree)."""
        for path in [p for p in self._files if p.startswith(prefix)]:
            self.drop_file(path)

    def rename_file(self, src: str, dst: str) -> None:
        """Give ``src``'s pages to ``dst`` (which has none): rename
        moves the inode, and its pages with it, each in its LRU place."""
        require(dst not in self._files, "rename target still has cached pages", dst)
        mapping = self._files.pop(src, None)
        if mapping is not None:
            mapping.path = dst
            self._files[dst] = mapping

    def drop_all(self) -> None:
        """Drop the whole cache (echo 3 > drop_caches)."""
        for page in self._pages.values():
            page.frame.put()
        self._pages.clear()
        self._files.clear()
        self.dirty_bytes = 0

    def evict_to_fit(self) -> List[Tuple[str, int, CachedPage]]:
        """Evict clean LRU pages; returns dirty pages that must be
        written back first (caller writes them, then calls again)."""
        if self.san is not None:
            self.san.check_pagecache(self)
        need_writeback: List[Tuple[str, int, CachedPage]] = []
        excess = len(self._pages) - self.budget // PAGE_SIZE
        if excess <= 0:
            return need_writeback
        # Walk the LRU only as far as the budget needs.
        victims: List[Tuple[Mapping, int]] = []
        for key, page in self._pages.items():
            if page.dirty:
                need_writeback.append((key[0].path, key[1], page))
                continue
            victims.append(key)
            if len(victims) == excess:
                break
        for key in victims:
            del self._pages[key]
            mapping, idx = key
            mapping.pages.pop(idx).frame.put()
            if not mapping.pages:
                del self._files[mapping.path]
        self.evictions += len(victims)
        return need_writeback

    def cached_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def __iter__(self) -> Iterator[Tuple[Tuple[str, int], CachedPage]]:
        return (((m.path, idx), page) for (m, idx), page in self._pages.items())
