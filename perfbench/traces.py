"""Seed-addressed syscall traces.

Every workload's inputs are generated here, from ``random.Random(seed)``
and nothing else, *before* the program under test is touched: the
replayer receives only the finished op lists.  The same seed gives the
same trace byte for byte (:func:`trace_sha256` is printed in every
result header); no ``repro`` module is imported.

A trace is a list of *setup* ops (preload; replayed untimed, counted in
``setup_s``) and one timed op list per client session.  A client op is
one :class:`Op`: a label, the session-lock keys a multi-tenant replay
holds across it, and 1–3 VFS calls.  Calls are plain tuples whose first
element names the ``mount.vfs`` method:

    ("mkdir", path)  ("create", path)  ("write", path, offset, data)
    ("read", path, offset, length)  ("fsync", path)  ("sync",)
    ("rename", src, dst)  ("unlink", path)  ("readdir", path)
    ("drop_caches",)

Traces are valid by construction — no op fails on a correct file
system — and, for multi-session traces, valid under *any* interleaving:
sessions share folders but own disjoint message ids.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

KIB = 1024
MIB = 1024 * KIB
PAGE = 4096

Call = Tuple


class Op(NamedTuple):
    """One client operation of a trace."""

    kind: str
    locks: Tuple[str, ...]
    calls: Tuple[Call, ...]


@dataclass
class Trace:
    setup: List[Op]
    sessions: List[List[Op]]

    @property
    def timed_ops(self) -> int:
        return sum(len(s) for s in self.sessions)

    @property
    def timed_calls(self) -> int:
        return sum(len(op.calls) for s in self.sessions for op in s)


@dataclass(frozen=True)
class Sizes:
    """Frozen input sizes of one benchmark scale."""

    toku_files: int
    toku_per_dir: int
    mail_folders: int
    mail_msgs_per_folder: int
    mail_ops: int
    mail_sessions: int
    tree_files: int
    tree_bytes: int
    scan_big_bytes: int
    scan_preads: int
    rw_bytes: int
    rw_overwrites: int
    rw_patches: int
    rw_fsync_every: int


#: The measured scale.  Sized so one timed rep is ~1–1.5 host seconds
#: and >= 3,000 VFS calls on the reference 2-core box, which lets a run
#: fit 5+ fresh-mount reps into BENCHMARK.json's ``run_seconds``.
FULL = Sizes(
    toku_files=6000,
    toku_per_dir=180,
    mail_folders=10,
    mail_msgs_per_folder=120,
    mail_ops=2560,
    mail_sessions=8,
    tree_files=800,
    tree_bytes=10 * MIB,
    scan_big_bytes=16 * MIB,
    scan_preads=1500,
    rw_bytes=20 * MIB,
    rw_overwrites=1024,
    rw_patches=2048,
    rw_fsync_every=256,
)

#: Self-test scale (perfbench/tests): whole runs in about a second.
TINY = Sizes(
    toku_files=400,
    toku_per_dir=60,
    mail_folders=4,
    mail_msgs_per_folder=16,
    mail_ops=320,
    mail_sessions=8,
    tree_files=60,
    tree_bytes=512 * KIB,
    scan_big_bytes=1 * MIB,
    scan_preads=64,
    rw_bytes=1 * MIB,
    rw_overwrites=48,
    rw_patches=96,
    rw_fsync_every=32,
)


def _op(kind: str, *calls: Call, locks: Tuple[str, ...] = ()) -> Op:
    return Op(kind, locks, calls)


# ----------------------------------------------------------------------
# smallfile_create — TokuBench shape
# ----------------------------------------------------------------------
def smallfile_create(rng: random.Random, sz: Sizes) -> Trace:
    """Create ``toku_files`` 200-byte files, ~``toku_per_dir`` per
    directory, directories made on first use, one ``sync`` at the end."""
    n_dirs = max(2, sz.toku_files // sz.toku_per_dir)
    ops: List[Op] = []
    made = set()
    for i in range(sz.toku_files):
        d = f"/toku/d{i % n_dirs:03d}"
        if d not in made:
            made.add(d)
            ops.append(_op("mkdir", ("mkdir", d)))
        path = f"{d}/f{rng.getrandbits(32):08x}-{i:06d}"
        ops.append(
            _op("create", ("create", path), ("write", path, 0, rng.randbytes(200)))
        )
    ops.append(_op("sync", ("sync",)))
    return Trace(setup=[_op("mkdir", ("mkdir", "/toku"))], sessions=[ops])


# ----------------------------------------------------------------------
# mail — Dovecot maildir mix
# ----------------------------------------------------------------------
MSG_BYTES = 8192
#: Ops of each kind per 40: read 40 / mark 30 / move 15 / delete 7.5 /
#: deliver 7.5 %.
MAIL_MIX = (("read", 16), ("mark", 12), ("move", 6), ("delete", 3), ("deliver", 3))


def _msg_path(folder: int, msg: int) -> str:
    return f"/mail/folder{folder:02d}/cur/m{msg:07d}"


def _folder_key(folder: int) -> str:
    return f"folder:{folder:02d}"


def mail(rng: random.Random, sz: Sizes) -> Trace:
    """The :data:`MAIL_MIX` (mark = write+fsync, move = rename, deliver
    = create+write+fsync) over a preloaded maildir, as ``mail_sessions``
    equal per-session op lists.

    Preloaded message ``i`` belongs to session ``i % sessions``; moved
    and delivered messages get ids from the owning session's private
    range, so no op's validity depends on how sessions interleave.
    """
    setup: List[Op] = [_op("mkdir", ("mkdir", "/mail"))]
    n_sess = sz.mail_sessions
    live: List[List[List[int]]] = [
        [[] for _ in range(sz.mail_folders)] for _ in range(n_sess)
    ]
    next_id = 0
    for f in range(sz.mail_folders):
        setup.append(_op("mkdir", ("mkdir", f"/mail/folder{f:02d}")))
        setup.append(_op("mkdir", ("mkdir", f"/mail/folder{f:02d}/cur")))
        for _ in range(sz.mail_msgs_per_folder):
            path = _msg_path(f, next_id)
            setup.append(
                _op(
                    "deliver",
                    ("create", path),
                    ("write", path, 0, rng.randbytes(MSG_BYTES)),
                )
            )
            live[next_id % n_sess][f].append(next_id)
            next_id += 1
    setup.append(_op("sync", ("sync",)))
    setup.append(_op("drop_caches", ("drop_caches",)))

    # Every session issues exactly the same number of ops of each kind
    # (the seed picks their order, folders and messages), so the work
    # in a trace does not drift with the seed.
    blocks, rest = divmod(sz.mail_ops // n_sess, sum(n for _k, n in MAIL_MIX))
    if rest:
        raise ValueError("mail_ops per session must be a multiple of the 40-op mix")
    sessions: List[List[Op]] = []
    for sid in range(n_sess):
        mine = live[sid]
        fresh = 1_000_000 * (sid + 1)
        kinds = [kind for kind, n in MAIL_MIX for _ in range(n * blocks)]
        rng.shuffle(kinds)
        ops: List[Op] = []
        for kind in kinds:
            if kind == "deliver":
                f = rng.randrange(sz.mail_folders)
                path = _msg_path(f, fresh)
                ops.append(
                    _op(
                        "deliver",
                        ("create", path),
                        ("write", path, 0, rng.randbytes(MSG_BYTES)),
                        ("fsync", path),
                        locks=(_folder_key(f),),
                    )
                )
                mine[f].append(fresh)
                fresh += 1
                continue
            f = rng.choice([f for f in range(sz.mail_folders) if mine[f]])
            key = _folder_key(f)
            if kind == "read":
                path = _msg_path(f, rng.choice(mine[f]))
                ops.append(_op("read", ("read", path, 0, MSG_BYTES), locks=(key,)))
            elif kind == "mark":
                path = _msg_path(f, rng.choice(mine[f]))
                flags = b"Status: %08x\r\n" % rng.getrandbits(32)
                ops.append(
                    _op("mark", ("write", path, 0, flags), ("fsync", path), locks=(key,))
                )
            elif kind == "move":
                msg = mine[f].pop(rng.randrange(len(mine[f])))
                g = rng.randrange(sz.mail_folders)
                ops.append(
                    _op(
                        "move",
                        ("rename", _msg_path(f, msg), _msg_path(g, fresh)),
                        locks=tuple(sorted({key, _folder_key(g)})),
                    )
                )
                mine[g].append(fresh)
                fresh += 1
            else:
                msg = mine[f].pop(rng.randrange(len(mine[f])))
                ops.append(_op("delete", ("unlink", _msg_path(f, msg)), locks=(key,)))
        sessions.append(ops)
    return Trace(setup=setup, sessions=sessions)


def flattened(trace: Trace) -> Trace:
    """The same ops as one client: sessions interleaved round-robin."""
    flat: List[Op] = []
    longest = max(len(s) for s in trace.sessions)
    for i in range(longest):
        for s in trace.sessions:
            if i < len(s):
                flat.append(s[i])
    return Trace(setup=trace.setup, sessions=[flat])


# ----------------------------------------------------------------------
# tree_scan_cold — find / grep / random preads over a cold tree
# ----------------------------------------------------------------------
def _write_ops(kind: str, path: str, body: bytes, chunk: int) -> List[Op]:
    ops = [_op(kind, ("create", path))]
    for pos in range(0, len(body), chunk):
        ops.append(_op(kind, ("write", path, pos, body[pos : pos + chunk])))
    return ops


def tree_scan_cold(rng: random.Random, sz: Sizes) -> Trace:
    """Preload a source-like tree and one big file, sync, drop caches;
    timed: find, grep (64 KiB reads), random 4 KiB preads, find again."""
    root = "/src"
    dirs: List[str] = [root]
    leaves: List[str] = []
    tops = max(4, sz.tree_files // 400)
    for s in range(tops):
        top = f"{root}/sub{s:02d}"
        dirs.append(top)
        leaves.append(top)
        for d in range(max(1, sz.tree_files // (tops * 28))):
            mid = f"{top}/mod{d:02d}"
            dirs.append(mid)
            leaves.append(mid)
            if (s + d) % 5 < 2:
                dirs.append(f"{mid}/impl")
                leaves.append(f"{mid}/impl")
    # The big file goes in first, into an empty tree, so that where its
    # leaves split — and with it whether a random pread costs a 64 KiB
    # basement or a whole 256 KiB node — does not depend on the seed's
    # small files (measured: 37 to 126 MiB of device reads otherwise).
    big = "/big.dat"
    setup: List[Op] = _write_ops("preload", big, rng.randbytes(sz.scan_big_bytes), MIB)
    setup.extend(_op("mkdir", ("mkdir", d)) for d in dirs)
    children: Dict[str, List[str]] = {d: [] for d in dirs}
    for d in dirs[1:]:
        children[d.rsplit("/", 1)[0]].append(d)
    # A fixed, skewed multiset of sizes (mostly small, a few multi-page
    # files; same total for every seed), dealt to the files by the seed.
    mean = max(1024, sz.tree_bytes // sz.tree_files)
    sizes = []
    for i in range(sz.tree_files):
        u = (i + 0.5) / sz.tree_files
        if u < 0.70:
            sizes.append(256 + int((mean - 256) * u / 0.70))
        elif u < 0.95:
            sizes.append(mean + int(2 * mean * (u - 0.70) / 0.25))
        else:
            sizes.append(3 * mean + int(9 * mean * (u - 0.95) / 0.05))
    rng.shuffle(sizes)
    files: Dict[str, List[Tuple[str, int]]] = {d: [] for d in dirs}
    for i, size in enumerate(sizes):
        d = leaves[i % len(leaves)]
        path = f"{d}/file{i:05d}.c"
        files[d].append((path, size))
        setup.extend(_write_ops("preload", path, rng.randbytes(size), MIB))
    setup.append(_op("sync", ("sync",)))
    setup.append(_op("drop_caches", ("drop_caches",)))

    # One walk order for find and grep: depth-first, names sorted.
    walk: List[str] = []
    stack = [root]
    while stack:
        d = stack.pop()
        walk.append(d)
        stack.extend(sorted(children[d], reverse=True))
    find = [_op("find", ("readdir", d)) for d in walk]
    grep: List[Op] = []
    for d in walk:
        for path, size in sorted(files[d]):
            reads = tuple(
                ("read", path, pos, min(64 * KIB, size - pos))
                for pos in range(0, size, 64 * KIB)
            )
            grep.append(Op("grep", (), reads))
    pages = sz.scan_big_bytes // PAGE
    preads = [
        _op("pread", ("read", big, rng.randrange(pages) * PAGE, PAGE))
        for _ in range(sz.scan_preads)
    ]
    return Trace(setup=setup, sessions=[find + grep + preads + find])


# ----------------------------------------------------------------------
# bigfile_rw — sequential write, random overwrites, blind patches, read
# ----------------------------------------------------------------------
def bigfile_rw(rng: random.Random, sz: Sizes) -> Trace:
    path = "/big.dat"
    chunk = 128 * KIB
    ops = _write_ops("seq_write", path, rng.randbytes(sz.rw_bytes), chunk)
    pages = sz.rw_bytes // PAGE
    for _ in range(sz.rw_overwrites):
        off = rng.randrange(pages) * PAGE
        ops.append(_op("overwrite", ("write", path, off, rng.randbytes(PAGE))))
    for i in range(1, sz.rw_patches + 1):
        off = rng.randrange(sz.rw_bytes - 4)
        calls = [("write", path, off, rng.randbytes(4))]
        if i % sz.rw_fsync_every == 0:
            calls.append(("fsync", path))
        ops.append(Op("patch", (), tuple(calls)))
    for pos in range(0, sz.rw_bytes, chunk):
        ops.append(_op("seq_read", ("read", path, pos, chunk)))
    return Trace(setup=[], sessions=[ops])


# ----------------------------------------------------------------------
def trace_sha256(trace: Trace) -> str:
    """Content hash of a trace: every op, lock key, argument and
    payload byte, in replay order."""
    h = hashlib.sha256()

    def feed(ops: List[Op]) -> None:
        for op in ops:
            h.update(f"{op.kind}|{','.join(op.locks)}|{len(op.calls)}\n".encode())
            for call in op.calls:
                for arg in call:
                    if isinstance(arg, bytes):
                        h.update(b"b%d:" % len(arg))
                        h.update(arg)
                    else:
                        h.update(f"{arg!r};".encode())
                h.update(b"\n")

    feed(trace.setup)
    for session in trace.sessions:
        h.update(b"--session--\n")
        feed(session)
    return h.hexdigest()
