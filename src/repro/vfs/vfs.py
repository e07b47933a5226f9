"""The VFS syscall layer.

Workloads call this API (create/read/write/unlink/...); the VFS owns
the page cache, dentry/inode caches, read-ahead detection, and dirty
write-back, and delegates persistence to a
:class:`FileSystemBackend` (the BetrFS northbound layer or a baseline
file-system model).
"""

from __future__ import annotations

import errno
from typing import Dict, List, Optional, Tuple

from repro.core.messages import PageFrame
from repro.check.errors import require
from repro.device.clock import SimClock
from repro.model.costs import CostModel
from repro.vfs.dcache import DentryCache
from repro.vfs.inode import FileKind, Stat, VInode
from repro.vfs.pagecache import PAGE_SIZE, PageCache

#: VFS keeps a dirty inode for at most 30 s (dirty_expire_centisecs).
INODE_DIRTY_EXPIRE = 30.0

#: Read-ahead window cap: 32 pages = 128 KiB, the stock VFS maximum.
READAHEAD_MAX_PAGES = 32


class FSError(Exception):
    """A file-system error with an errno code."""

    def __init__(self, code: int, path: str) -> None:
        super().__init__(f"{errno.errorcode.get(code, code)}: {path}")
        self.code = code
        self.path = path


class FileSystemBackend:
    """What a concrete file system implements below the VFS."""

    #: §4 +DC: readdir results may populate the dentry/inode caches.
    readdir_fills_caches = False
    #: §4 +RG: the VFS may trust cached nlink/children counts for rmdir.
    trusts_nlink = False
    #: §6 +PGSH: write-back passes page frames by reference.
    page_sharing = False
    #: Blind sub-page writes: the backend can encode a small write as a
    #: message without reading the old block (write-optimized designs).
    supports_blind_patch = False

    def lookup(self, path: str) -> Optional[Stat]:
        raise NotImplementedError

    def write_patch(self, path: str, idx: int, offset: int, data: bytes) -> None:
        """Blind sub-page write (only if supports_blind_patch)."""
        raise NotImplementedError

    def create(self, path: str, stat: Stat) -> Optional[int]:
        """Create an object.  Returns a pinned WAL section id when the
        backend defers the insert (conditional logging, §3.3)."""
        raise NotImplementedError

    def set_stat(self, path: str, stat: Stat, pinned_section: Optional[int]) -> None:
        """Write back a dirty inode (releases any conditional-logging pin)."""
        raise NotImplementedError

    def unlink(self, path: str, stat: Stat, delete_issued: bool) -> None:
        raise NotImplementedError

    def evict_inode(self, path: str, stat: Stat, delete_issued: bool) -> None:
        """VFS inode teardown hook (source of the redundant delete)."""
        raise NotImplementedError

    def rmdir(self, path: str, known_empty: bool) -> None:
        raise NotImplementedError

    def is_dir_empty(self, path: str) -> bool:
        raise NotImplementedError

    def rename(self, src: str, dst: str, stat: Stat) -> None:
        raise NotImplementedError

    def readdir(self, path: str) -> List[Tuple[str, Stat]]:
        """Direct children as (name, stat) pairs."""
        raise NotImplementedError

    def write_page(
        self, path: str, idx: int, frame: PageFrame, nbytes: int
    ) -> bool:
        """Persist one page; returns True if the backend retains a
        reference to the frame (page sharing)."""
        raise NotImplementedError

    def read_pages(
        self, path: str, idx: int, count: int, seq_hint: bool
    ) -> List[PageFrame]:
        """Read up to ``count`` consecutive pages starting at ``idx``."""
        raise NotImplementedError

    def fsync(self, path: str) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def drop_caches(self) -> None:
        """Drop the backend's internal clean caches (cold-cache runs)."""

    def throttle(self) -> None:
        """Block the writer while write-back catches up
        (balance_dirty_pages).  Default: no wait."""


class VFS:
    """The syscall-level interface used by all workloads."""

    def __init__(
        self,
        backend: FileSystemBackend,
        clock: SimClock,
        costs: CostModel,
        page_cache_bytes: int = 1 << 30,
        dirty_limit_bytes: int = 256 << 20,
        obs=None,
    ) -> None:
        self.backend = backend
        self.clock = clock
        self.costs = costs
        self.pages = PageCache(clock, costs, page_cache_bytes, dirty_limit_bytes)
        self.dcache = DentryCache()
        #: Blocking-point reporter installed by a scheduler for
        #: multi-tenant runs (repro.sched); ``None`` — and therefore a
        #: single attribute test — on sequential runs.
        self.block_signal = None
        #: Per-path sequential-read detector: path -> (next_off, streak).
        self._read_streams: Dict[str, Tuple[int, int]] = {}
        self.syscalls = 0
        root = VInode("/", Stat(kind=FileKind.DIR, nlink=2), dirty=False)
        root.children_count = 0
        self.dcache.insert(root)
        if obs is not None:
            self._instrument(obs)

    #: Syscalls wrapped with a latency histogram, and in a trace span
    #: when the observability scope traces.
    SPANS = {
        op: (f"vfs.{op}", "vfs", None)
        for op in (
            "create", "mkdir", "unlink", "rmdir", "rename", "symlink",
            "write", "read", "fsync", "sync", "readdir_plus", "stat",
        )
    }

    def _instrument(self, obs) -> None:
        """Register the caches and wrap the syscall surface (on the
        instance: an unobserved VFS pays nothing)."""
        obs.register_object("vfs.pagecache", self.pages, layer="vfs")
        obs.register_object("vfs.dcache", self.dcache, layer="vfs")
        obs.registry.gauge(
            "vfs.syscalls", layer="vfs", fn=lambda: self.syscalls
        )
        obs.instrument(
            self,
            self.SPANS,
            {op: obs.latency(f"vfs.{op}_latency", layer="vfs") for op in self.SPANS},
        )

    # ==================================================================
    # Path resolution
    # ==================================================================
    @staticmethod
    def _parent_of(path: str) -> str:
        if path == "/":
            return "/"
        parent = path.rsplit("/", 1)[0]
        return parent or "/"

    @staticmethod
    def _components(path: str) -> int:
        return max(1, path.count("/"))

    def _charge_syscall(self, path: str) -> None:
        self.syscalls += 1
        self.clock.cpu(self.costs.syscall_overhead)
        self.clock.cpu(self.costs.dcache_hit * self._components(path))

    def _resolve(self, path: str) -> Optional[VInode]:
        """Resolve ``path`` to a cached inode, consulting the backend
        on a dcache miss.  Returns None for ENOENT."""
        if self.dcache.contains(path):
            return self.dcache.get(path)
        stat = self.backend.lookup(path)
        if stat is None:
            self.dcache.insert_negative(path)
            return None
        self.clock.cpu(self.costs.inode_instantiate)
        inode = VInode(path, stat)
        self.dcache.insert(inode)
        return inode

    def _require(self, path: str) -> VInode:
        inode = self._resolve(path)
        if inode is None:
            raise FSError(errno.ENOENT, path)
        return inode

    def _require_dir(self, path: str) -> VInode:
        inode = self._require(path)
        if inode.stat.kind is not FileKind.DIR:
            raise FSError(errno.ENOTDIR, path)
        return inode

    def _bump_children(self, parent_path: str, delta: int) -> None:
        parent = self.dcache.get(parent_path)
        if parent is not None and parent.children_count is not None:
            parent.children_count += delta

    # ==================================================================
    # Namespace operations
    # ==================================================================
    def create(self, path: str, mode: int = 0o644) -> VInode:
        """Create a regular file (O_CREAT|O_EXCL semantics)."""
        self._charge_syscall(path)
        parent = self._require_dir(self._parent_of(path))
        existing = self._resolve(path)  # the existence check
        if existing is not None:
            raise FSError(errno.EEXIST, path)
        stat = Stat(
            kind=FileKind.FILE,
            mode=mode,
            mtime=self.clock.now,
            ctime=self.clock.now,
        )
        pinned = self.backend.create(path, stat)
        inode = VInode(path, stat)
        if pinned is not None:
            inode.dirty = True
            inode.dirtied_at = self.clock.now
            inode.pinned_log_section = pinned
        self.dcache.invalidate(path)  # drop the negative entry
        self.dcache.insert(inode)
        self._bump_children(self._parent_of(path), +1)
        if parent.stat.kind is FileKind.DIR:
            parent.stat.mtime = self.clock.now
        return inode

    def mkdir(self, path: str, mode: int = 0o755) -> VInode:
        self._charge_syscall(path)
        self._require_dir(self._parent_of(path))
        if self._resolve(path) is not None:
            raise FSError(errno.EEXIST, path)
        stat = Stat(
            kind=FileKind.DIR,
            nlink=2,
            mode=mode,
            mtime=self.clock.now,
            ctime=self.clock.now,
        )
        pinned = self.backend.create(path, stat)
        inode = VInode(path, stat)
        inode.children_count = 0
        if pinned is not None:
            inode.dirty = True
            inode.dirtied_at = self.clock.now
            inode.pinned_log_section = pinned
        self.dcache.invalidate(path)
        self.dcache.insert(inode)
        self._bump_children(self._parent_of(path), +1)
        parent = self.dcache.get(self._parent_of(path))
        if parent is not None:
            parent.stat.nlink += 1
        return inode

    def unlink(self, path: str) -> None:
        self._charge_syscall(path)
        inode = self._require(path)
        if inode.stat.kind is FileKind.DIR:
            raise FSError(errno.EISDIR, path)
        self.backend.unlink(path, inode.stat, inode.delete_issued)
        inode.delete_issued = True
        self.pages.drop_file(path)
        # evict_inode fires when the last reference drops — immediately
        # here, since the simulation has no open handles outliving this.
        self.backend.evict_inode(path, inode.stat, inode.delete_issued)
        self.dcache.invalidate(path)
        self.dcache.insert_negative(path)
        self._bump_children(self._parent_of(path), -1)

    def rmdir(self, path: str) -> None:
        self._charge_syscall(path)
        inode = self._require_dir(path)
        known_empty = False
        if self.backend.trusts_nlink and inode.children_count is not None:
            if inode.children_count > 0:
                raise FSError(errno.ENOTEMPTY, path)
            known_empty = True
        if not known_empty and not self.backend.is_dir_empty(path):
            raise FSError(errno.ENOTEMPTY, path)
        self.backend.rmdir(path, known_empty)
        self.dcache.invalidate(path)
        self.dcache.insert_negative(path)
        self._bump_children(self._parent_of(path), -1)
        parent = self.dcache.get(self._parent_of(path))
        if parent is not None and parent.stat.nlink > 2:
            parent.stat.nlink -= 1

    def rename(self, src: str, dst: str) -> None:
        self._charge_syscall(src)
        self._charge_syscall(dst)
        inode = self._require(src)
        if src == dst or dst.startswith(src + "/"):
            # Renaming a file onto itself would unlink the destination
            # (== the source) before the backend rename, destroying it;
            # a directory cannot become its own descendant.
            raise FSError(errno.EINVAL, src)
        dst_inode = self._resolve(dst)
        if dst_inode is not None:
            if dst_inode.stat.kind is FileKind.DIR:
                raise FSError(errno.EEXIST, dst)
            self.unlink(dst)
        # Flush src's dirty pages and any deferred (dirty) inodes in
        # the moved subtree under the old names first — the backend's
        # rename operates on its own index.
        self.writeback(path=src)
        src_prefix = src + "/"
        # Only a directory has anything cached below its name (a
        # file's own dirty pages went out with writeback(path=src), and
        # the only inode at or below its name is the one in hand), and
        # only a directory brings children to names below ``dst``,
        # where lookups may have cached their absence.
        is_dir = inode.stat.kind is FileKind.DIR
        for dirty in self.dcache.dirty_inodes() if is_dir else [inode]:
            if dirty.dirty and (
                dirty.path == src or dirty.path.startswith(src_prefix)
            ):
                self.backend.set_stat(
                    dirty.path, dirty.stat, dirty.pinned_log_section
                )
                dirty.dirty = False
                dirty.pinned_log_section = None
        if is_dir and any(
            page.dirty and p.startswith(src_prefix) for (p, _i), page in self.pages
        ):
            self.writeback()
        self.backend.rename(src, dst, inode.stat)
        # A read streak belongs to an open file; the new name is reached
        # through a new open.
        self._read_streams.pop(src, None)
        self._read_streams.pop(dst, None)
        if is_dir:
            # The subtree's (clean) pages and dentries are dropped, not
            # moved: its files come back under their new names.
            self.pages.drop_tree(src_prefix)
            self.dcache.invalidate_tree(src)
            self.dcache.invalidate_tree(dst)
        else:
            # Linux's rename moves a dentry: the inode, and the pages
            # that belong to it, stay as they are.
            self.pages.rename_file(src, dst)
            inode.path = dst
            self.dcache.insert(inode)
        self.dcache.insert_negative(src)
        self._bump_children(self._parent_of(src), -1)
        self._bump_children(self._parent_of(dst), +1)

    def symlink(self, target: str, path: str) -> VInode:
        """Create a symbolic link at ``path`` pointing to ``target``."""
        self._charge_syscall(path)
        self._require_dir(self._parent_of(path))
        if self._resolve(path) is not None:
            raise FSError(errno.EEXIST, path)
        stat = Stat(
            kind=FileKind.SYMLINK,
            size=len(target),
            mtime=self.clock.now,
            ctime=self.clock.now,
            symlink_target=target,
        )
        pinned = self.backend.create(path, stat)
        inode = VInode(path, stat)
        if pinned is not None:
            inode.dirty = True
            inode.dirtied_at = self.clock.now
            inode.pinned_log_section = pinned
        self.dcache.invalidate(path)
        self.dcache.insert(inode)
        self._bump_children(self._parent_of(path), +1)
        return inode

    def readlink(self, path: str) -> str:
        self._charge_syscall(path)
        inode = self._require(path)
        if inode.stat.kind is not FileKind.SYMLINK:
            raise FSError(errno.EINVAL, path)
        return inode.stat.symlink_target

    def resolve_symlinks(self, path: str, max_depth: int = 8) -> str:
        """Follow symlinks at the final component (like O_NOFOLLOW off)."""
        for _ in range(max_depth):
            inode = self._resolve(path)
            if inode is None or inode.stat.kind is not FileKind.SYMLINK:
                return path
            target = inode.stat.symlink_target
            if not target.startswith("/"):
                target = self._parent_of(path) + "/" + target
            path = target
        raise FSError(errno.ELOOP, path)

    def stat(self, path: str) -> Stat:
        self._charge_syscall(path)
        return self._require(path).stat

    def exists(self, path: str) -> bool:
        self._charge_syscall(path)
        return self._resolve(path) is not None

    def readdir_plus(self, path: str) -> List[Tuple[str, "Stat"]]:
        """getdents-style listing: (name, stat) pairs.

        d_type comes with the dirents, so callers (find, rm -rf) can
        distinguish files from directories without per-entry stat
        calls, exactly like coreutils.
        """
        self._charge_syscall(path)
        dir_inode = self._require_dir(path)
        entries = self.backend.readdir(path)
        self.clock.cpu(self.costs.dcache_hit * len(entries))
        # Merge in children whose creation is still deferred in the log
        # (conditional logging, §3.3): their dentries live only in the
        # VFS until inode write-back.
        listed = {name for name, _ in entries}
        prefix_cl = path if path.endswith("/") else path + "/"
        for inode in self.dcache.dirty_inodes():
            if inode.pinned_log_section is None:
                continue
            if not inode.path.startswith(prefix_cl):
                continue
            name = inode.path[len(prefix_cl) :]
            if "/" not in name and name not in listed:
                entries.append((name, inode.stat))
                listed.add(name)
        entries.sort(key=lambda e: e[0])
        if self.backend.readdir_fills_caches:
            # §4 +DC: opportunistically instantiate child inodes from
            # the same range query that produced the listing.
            prefix = path if path.endswith("/") else path + "/"
            for name, stat in entries:
                child_path = prefix + name
                if not self.dcache.contains(child_path):
                    self.clock.cpu(self.costs.inode_instantiate)
                    self.dcache.insert(VInode(child_path, stat))
        dir_inode.children_count = len(entries)
        return entries

    def readdir(self, path: str) -> List[str]:
        """Names of the direct children of ``path``."""
        return [name for name, _stat in self.readdir_plus(path)]

    # ==================================================================
    # Data I/O
    # ==================================================================
    def write(self, path: str, offset: int, data: bytes) -> int:
        """Buffered write (pwrite semantics)."""
        self._charge_syscall(path)
        inode = self._require(path)
        if inode.stat.kind is FileKind.DIR:
            raise FSError(errno.EISDIR, path)
        pos = offset
        stop = offset + len(data)
        while pos < stop:
            idx = pos // PAGE_SIZE
            page_off = pos % PAGE_SIZE
            # Walk ``data`` by offset: one slice per page, never a
            # re-slice of the unwritten rest.
            done = pos - offset
            chunk = data[done : done + PAGE_SIZE - page_off]
            partial = page_off != 0 or len(chunk) != PAGE_SIZE
            cached = self.pages.lookup(path, idx)
            covers_existing = idx * PAGE_SIZE < inode.stat.size
            small = len(chunk) <= PAGE_SIZE // 8
            patchable = (
                partial
                and covers_existing
                and self.backend.supports_blind_patch
                and (cached is None or (small and not cached.dirty))
            )
            if patchable:
                # Blind write (§2.1): encode the modification as a
                # message instead of dirtying and later rewriting the
                # whole block.  A clean cached copy is updated in place
                # (and stays clean — the message is the persistent
                # update); a *dirty* page must take the normal path or
                # the newer patch would be clobbered by the older full
                # page at write-back.
                self.backend.write_patch(path, idx, page_off, chunk)
                if cached is not None:
                    buf = cached.frame.data
                    end = page_off + len(chunk)
                    cached.frame.data = buf[:page_off] + chunk + buf[end:]
                pos += len(chunk)
                continue
            if partial and cached is None and covers_existing:
                # Read-modify-write of an existing block.
                self._fill_page(path, idx, 1, seq_hint=False)
            self.pages.write(path, idx, page_off, chunk)
            pos += len(chunk)
        if stop > inode.stat.size:
            inode.stat.size = stop
        inode.stat.mtime = self.clock.now
        if not inode.dirty:
            inode.dirty = True
            inode.dirtied_at = self.clock.now
        if self.pages.over_dirty_limit():
            if self.block_signal is not None:
                self.block_signal.note("writeback")
            self.writeback()
            self.backend.throttle()
        self._balance_page_cache()
        return len(data)

    def read(self, path: str, offset: int, length: int) -> bytes:
        """Buffered read (pread semantics)."""
        self._charge_syscall(path)
        inode = self._require(path)
        length = max(0, min(length, inode.stat.size - offset))
        if length == 0:
            return b""
        # A multi-page read is sequential within itself; smaller reads
        # rely on the per-file streak detector.
        seq_hint = self._note_read(path, offset, length)
        if length >= 4 * PAGE_SIZE:
            seq_hint = True
        end = offset + length
        # A miss asks the backend for every page this read still needs
        # (synchronous read-ahead), a sequential one for the read-ahead
        # window, which is never shorter; both stop at EOF like the
        # kernel's: no page past ``i_size`` is asked for or cached.
        if seq_hint:
            want = (inode.stat.size - 1) // PAGE_SIZE
        else:
            want = (end - 1) // PAGE_SIZE
        out: List[bytes] = []
        pos = offset
        while pos < end:
            idx = pos // PAGE_SIZE
            page_off = pos % PAGE_SIZE
            take = min(PAGE_SIZE - page_off, end - pos)
            page = self.pages.lookup(path, idx)
            if page is None:
                count = min(READAHEAD_MAX_PAGES, want - idx + 1)
                page = self._fill_page(path, idx, count, seq_hint)
            out.append(page.frame.data[page_off : page_off + take])
            pos += take
        # Copy to the user buffer.
        self.clock.cpu(self.costs.memcpy(length))
        self._balance_page_cache()
        return b"".join(out)

    def _note_read(self, path: str, offset: int, length: int) -> bool:
        nxt, streak = self._read_streams.get(path, (-1, 0))
        if offset == nxt:
            streak += 1
        else:
            streak = 0
        self._read_streams[path] = (offset + length, streak)
        return streak >= 1

    def _fill_page(self, path: str, idx: int, count: int, seq_hint: bool):
        """Page-cache miss: pull ``count`` pages from ``idx`` on from the
        backend in one request and return the page at ``idx``."""
        if self.block_signal is not None:
            self.block_signal.note("pagecache_miss")
        frames = self.backend.read_pages(path, idx, count, seq_hint)
        page = None
        for i, frame in enumerate(frames):
            cached = self.pages.lookup(path, idx + i)
            if cached is None:
                if len(frame.data) < PAGE_SIZE:
                    # A block the backend holds short (a blind patch
                    # into a hole) is zero-extended: a cached page is
                    # a whole page, so offsets into it mean what they say.
                    frame.put()
                    frame = PageFrame(frame.data.ljust(PAGE_SIZE, b"\x00"))
                cached = self.pages.insert_clean(path, idx + i, frame)
            else:
                # The backend took a reference for us (page sharing);
                # the cached page already holds its own.
                frame.put()
            if i == 0:
                page = cached
        require(page is not None, "readahead populated no page for the requested index")
        return page

    # ==================================================================
    # Write-back and durability
    # ==================================================================
    def writeback(self, path: Optional[str] = None) -> int:
        """Write dirty pages (all, or one file's) to the backend."""
        dirty = self.pages.dirty_pages(path)
        dirty.sort(key=lambda t: (t[0], t[1]))
        for p, idx, page in dirty:
            inode = self.dcache.get(p)
            nbytes = PAGE_SIZE
            if inode is not None:
                nbytes = min(PAGE_SIZE, inode.stat.size - idx * PAGE_SIZE)
                if nbytes <= 0:
                    nbytes = len(page.frame)
            retained = self.backend.write_page(p, idx, page.frame, nbytes)
            self.pages.mark_clean(p, idx, shared=retained)
        return len(dirty)

    def writeback_inodes(self, force: bool = False) -> int:
        """Write back dirty inodes (30 s expiry unless forced)."""
        count = 0
        for inode in self.dcache.dirty_inodes():
            if not force and (
                self.clock.now - inode.dirtied_at < INODE_DIRTY_EXPIRE
            ):
                continue
            self.backend.set_stat(inode.path, inode.stat, inode.pinned_log_section)
            inode.dirty = False
            inode.pinned_log_section = None
            count += 1
        return count

    def fsync(self, path: str) -> None:
        self._charge_syscall(path)
        inode = self._require(path)
        if self.block_signal is not None:
            self.block_signal.note("fsync")
        self.writeback(path=path)
        if inode.dirty:
            self.backend.set_stat(path, inode.stat, inode.pinned_log_section)
            inode.dirty = False
            inode.pinned_log_section = None
        self.backend.fsync(path)

    def sync(self) -> None:
        self.clock.cpu(self.costs.syscall_overhead)
        if self.block_signal is not None:
            self.block_signal.note("fsync")
        self.writeback()
        self.writeback_inodes(force=True)
        self.backend.sync()

    def tick(self) -> None:
        """Periodic kernel housekeeping (expired inode write-back)."""
        self.writeback_inodes(force=False)

    def drop_caches(self) -> None:
        """`echo 3 > /proc/sys/vm/drop_caches` before cold-cache runs."""
        self.writeback()
        self.writeback_inodes(force=True)
        self.pages.drop_all()
        self.dcache.clear_clean()
        self._read_streams.clear()
        self.backend.drop_caches()

    def _balance_page_cache(self) -> None:
        need = self.pages.evict_to_fit()
        if need:
            self.writeback()
            self.pages.evict_to_fit()
