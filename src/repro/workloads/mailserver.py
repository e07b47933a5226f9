"""Dovecot mailserver benchmark (Figure 2d), sequential and multi-tenant.

The paper: Dovecot 2.2.13, 10 folders x 2500 messages, 8 clients x
10 000 operations, 50% reads and 50% updates (marks, moves, deletes).
Maildir-style storage: one file per message; a mark rewrites flags in
the file name / index (small write + fsync), a move is a rename across
folders, a delete is an unlink; reads read the whole message.

There is one driver.  Each client session runs its own seeded stream of
the op mix (:func:`mail_mix`) over the **shared** mailbox index,
interleaved by a :class:`repro.sched.Scheduler` at simulated blocking
points; :func:`mailserver`, the Figure 2d benchmark, is that driver
with one session (no switches, no lock waits: the scheduler charges
nothing, so the run is the plain sequential loop).  Maildir-style
locking, one lock per folder:

* **read / delete** take the message's folder lock for one call;
* **mark** holds the folder lock *across* the write and the fsync —
  a genuine multi-operation critical section spanning a blocking
  yield (the durability barrier);
* **move** takes both folder locks in sorted key order (the global
  lock order that makes deadlock impossible by construction).

Safety does not rest on the locks alone: generation mutates the shared
index eagerly — moves and deletes *pop* their victim when drawn,
atomically with their first lock enqueue — so no session ever targets a
message that another session's already-drawn op will unlink or rename
(FIFO lock handoff then serializes the survivors in enqueue order).  A
move's new id is published to its destination folder by the session
that ran it, after the rename lands.

Session 0 draws from ``random.Random(seed)``; further sessions derive
integer-keyed streams from the same root seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, List, Tuple

from repro.sched import Blocked, Scheduler, SessionContext
from repro.workloads.scale import WorkloadScale

MSG_BYTES = 8192  # ~8 KiB average message

#: Op tuples yielded by :func:`mail_mix`:
#: ("read", folder, msg) / ("mark", folder, msg) /
#: ("move", folder, msg, dst_folder, new_id) / ("delete", folder, msg).
MailOp = Tuple

#: Per-session seed stride (odd 64-bit constant, splitmix64's golden
#: gamma); session 0 keeps the root seed itself.
_SESSION_STRIDE = 0x9E3779B97F4A7C15


@dataclass
class MailState:
    """Shared mailbox index: live message ids per folder + id counter."""

    folders: List[List[int]]
    next_id: int


def _msg_path(folder: int, msg_id: int) -> str:
    return f"/mail/folder{folder:02d}/cur/m{msg_id:07d}"


def _folder_key(folder: int) -> str:
    """The folder's lock, on every mount: a folder's messages share one
    parent directory and so one shard, which the key need not name."""
    return f"folder:{folder:02d}"


def setup_mailserver(mount, scale: WorkloadScale) -> List[List[int]]:
    """Create folders and initial messages; returns live ids per folder."""
    vfs = mount.vfs
    body = b"Subject: hello\r\n\r\n" + b"m" * (MSG_BYTES - 20)
    vfs.mkdir("/mail")
    folders: List[List[int]] = []
    next_id = 0
    for f in range(scale.mail_folders):
        vfs.mkdir(f"/mail/folder{f:02d}")
        vfs.mkdir(f"/mail/folder{f:02d}/cur")
        ids = []
        for _ in range(scale.mail_msgs_per_folder):
            path = _msg_path(f, next_id)
            vfs.create(path)
            vfs.write(path, 0, body)
            ids.append(next_id)
            next_id += 1
        folders.append(ids)
    vfs.sync()
    mount.drop_caches()
    return folders


def mail_mix(state: MailState, rng: random.Random, n_ops: int) -> Iterator[MailOp]:
    """Yield up to ``n_ops`` ops of the 50/25/12/13 read/mark/move/delete
    mix, drawing from ``rng`` and the *current* ``state``.

    Lazy by design: each op is drawn only when the previous one has
    executed, so draws observe every published state change (including
    this or another client's completed moves).  Moves and deletes pop
    their victim from the shared index at draw time; a drawn slot
    landing on an empty folder yields nothing (the iteration is spent
    without an op).
    """
    folders = state.folders
    for _ in range(n_ops):
        f = rng.randrange(len(folders))
        if not folders[f]:
            continue
        r = rng.random()
        if r < 0.50:
            yield ("read", f, rng.choice(folders[f]))
        elif r < 0.80:
            yield ("mark", f, rng.choice(folders[f]))
        elif r < 0.92:
            msg = folders[f].pop(rng.randrange(len(folders[f])))
            g = rng.randrange(len(folders))
            new_id = state.next_id
            state.next_id += 1
            yield ("move", f, msg, g, new_id)
        else:
            msg = folders[f].pop(rng.randrange(len(folders[f])))
            yield ("delete", f, msg)


def _make_script(
    vfs, state: MailState, rng: random.Random, n_ops: int
) -> Callable[[SessionContext], Generator[Blocked, None, None]]:
    """One client: consume the shared-state op mix under folder locks."""

    def script(ctx: SessionContext) -> Generator[Blocked, None, None]:
        for op in mail_mix(state, rng, n_ops):
            kind = op[0]
            if kind == "read":
                _, f, msg = op
                key = _folder_key(f)
                yield from ctx.acquire(key)
                yield from ctx.run(vfs.read, _msg_path(f, msg), 0, MSG_BYTES)
                ctx.release(key)
            elif kind == "mark":
                _, f, msg = op
                path = _msg_path(f, msg)
                key = _folder_key(f)
                yield from ctx.acquire(key)
                yield from ctx.run(vfs.write, path, 0, b"Status: RO\r\n")
                yield from ctx.run(vfs.fsync, path)
                ctx.release(key)
            elif kind == "move":
                _, f, msg, g, new_id = op
                keys = sorted({_folder_key(f), _folder_key(g)})
                for key in keys:
                    yield from ctx.acquire(key)
                yield from ctx.run(
                    vfs.rename, _msg_path(f, msg), _msg_path(g, new_id)
                )
                state.folders[g].append(new_id)
                for key in reversed(keys):
                    ctx.release(key)
            else:
                _, f, msg = op
                key = _folder_key(f)
                yield from ctx.acquire(key)
                yield from ctx.run(vfs.unlink, _msg_path(f, msg))
                ctx.release(key)
            ctx.op_done()

    return script


def mailserver_mt(
    mount,
    scale: WorkloadScale,
    sessions: int = 8,
    seed: int = 11,
    policy: str = "fifo",
    ops_per_session: int = 0,
) -> Scheduler:
    """Run ``sessions`` concurrent clients; returns the scheduler (its
    sessions carry per-client latency/fairness accounting).

    ``ops_per_session`` defaults to an even split of the scale's op
    count, so total work does not grow with the number of sessions.
    """
    folders = setup_mailserver(mount, scale)
    state = MailState(folders, sum(len(ids) for ids in folders))
    if ops_per_session <= 0:
        ops_per_session = max(1, scale.mail_ops // sessions)
    sched = Scheduler(mount, policy=policy, seed=seed)
    smap = getattr(mount, "shard_map", None)
    for sid in range(sessions):
        rng = random.Random(seed + sid * _SESSION_STRIDE)
        script = _make_script(mount.vfs, state, rng, ops_per_session)
        # The mailbox is shared; on a sharded mount a session's affinity
        # is the shard of the folder its stream opens with (accounting).
        affinity = None
        if smap is not None:
            affinity = smap.owner_of_entry(_msg_path(sid % len(folders), 0))
        sched.spawn(f"user{sid:03d}", script, affinity=affinity)
    sched.run()
    mount.vfs.sync()
    return sched


def mailserver(mount, scale: WorkloadScale, seed: int = 11) -> float:
    """The Figure 2d benchmark — one client running the scale's whole
    op count; returns ops/second from the first op through the final
    sync."""
    sched = mailserver_mt(mount, scale, sessions=1, seed=seed)
    return sched.total_ops() / (mount.clock.now - sched.started)
