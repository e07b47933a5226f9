"""In-memory inode and stat structures."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class FileKind(Enum):
    FILE = 1
    DIR = 2
    SYMLINK = 3


#: Symlink targets are stored in the stat's auxiliary payload when
#: packed (appended after the fixed struct).


@dataclass
class Stat:
    """The persistent metadata of one file-system object.

    This is what BetrFS stores as the value in its metadata index.
    """

    kind: FileKind = FileKind.FILE
    size: int = 0
    nlink: int = 1
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    mtime: float = 0.0
    ctime: float = 0.0

    #: Symlink target (empty for non-symlinks).
    symlink_target: str = ""

    _STRUCT = struct.Struct("<BqiIiidd")

    def pack(self) -> bytes:
        fixed = self._STRUCT.pack(
            self.kind.value,
            self.size,
            self.nlink,
            self.mode,
            self.uid,
            self.gid,
            self.mtime,
            self.ctime,
        )
        return fixed + self.symlink_target.encode("utf-8")

    @classmethod
    def unpack(cls, data: bytes) -> "Stat":
        kind, size, nlink, mode, uid, gid, mtime, ctime = cls._STRUCT.unpack(
            data[: cls._STRUCT.size]
        )
        target = data[cls._STRUCT.size :].decode("utf-8")
        return cls(
            FileKind(kind), size, nlink, mode, uid, gid, mtime, ctime, target
        )

    def copy(self) -> "Stat":
        return Stat(
            self.kind,
            self.size,
            self.nlink,
            self.mode,
            self.uid,
            self.gid,
            self.mtime,
            self.ctime,
            self.symlink_target,
        )


@dataclass
class VInode:
    """A cached in-memory inode (VFS icache entry)."""

    path: str
    stat: Stat
    #: Metadata changed in memory but not yet written to the backend.
    dirty: bool = False
    #: Simulated time the inode was first dirtied (30 s write-back).
    dirtied_at: float = 0.0
    #: §4: a delete message has already been issued for this inode
    #: (suppresses the redundant evict_inode message).
    delete_issued: bool = False
    #: For directories: number of live children, maintained coherently
    #: in memory (§4, nlink-based rmdir bypass).  None = unknown (the
    #: directory has not been listed since this inode was cached).
    children_count: Optional[int] = None
