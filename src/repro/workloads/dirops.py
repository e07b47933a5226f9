"""Directory-traversal utilities: grep, find, rm -rf (Table 1/3)."""

from __future__ import annotations

from repro.workloads.trees import GREP_NEEDLE, TreeSpec

PAGE = 4096


def grep_tree(mount, root: str) -> float:
    """`grep -r cpu_to_be64 root` cold-cache; returns seconds."""
    vfs = mount.vfs
    mount.drop_caches()
    start = mount.clock.now
    hits = 0
    stack = [root]
    while stack:
        d = stack.pop()
        prefix = d if d.endswith("/") else d + "/"
        for name, st in vfs.readdir_plus(d):
            path = prefix + name
            if st.kind.name == "DIR":
                stack.append(path)
                continue
            # grep opens the file: path resolution + inode lookup.
            st = vfs.stat(path)
            pos = 0
            found = False
            while pos < st.size:
                chunk = vfs.read(path, pos, 1 << 20)
                if GREP_NEEDLE in chunk:
                    found = True
                pos += len(chunk)
                if not chunk:
                    break
            hits += 1 if found else 0
    return mount.clock.now - start


def find_tree(mount, root: str, needle: str = "file00042.c") -> float:
    """`find root -name needle` cold-cache; returns seconds."""
    vfs = mount.vfs
    mount.drop_caches()
    start = mount.clock.now
    matches = 0
    stack = [root]
    while stack:
        d = stack.pop()
        prefix = d if d.endswith("/") else d + "/"
        # find -name needs only names + d_type (no stat per entry).
        for name, st in vfs.readdir_plus(d):
            path = prefix + name
            if st.kind.name == "DIR":
                stack.append(path)
            elif name == needle:
                matches += 1
    return mount.clock.now - start


def rm_rf(mount, root: str) -> float:
    """`rm -rf root` cold-cache; returns seconds.

    Mirrors coreutils: a top-down traversal listing directories, then
    bottom-up deletion (children before parents).
    """
    vfs = mount.vfs
    mount.drop_caches()
    start = mount.clock.now
    _rm_recursive(vfs, root)
    vfs.sync()
    return mount.clock.now - start


def _rm_recursive(vfs, d: str) -> None:
    prefix = d if d.endswith("/") else d + "/"
    # getdents provides d_type: no stat per entry (like coreutils rm).
    for name, st in vfs.readdir_plus(d):
        path = prefix + name
        if st.kind.name == "DIR":
            _rm_recursive(vfs, path)
        else:
            vfs.unlink(path)
    vfs.rmdir(d)
