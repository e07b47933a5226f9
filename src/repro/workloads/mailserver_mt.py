"""Multi-tenant mailserver: N concurrent clients on one mount.

Each client session runs its own seeded stream of the Dovecot op mix
(:func:`repro.workloads.mailserver.mail_mix`) over the **shared**
mailbox index, interleaved by a :class:`repro.sched.Scheduler` at
simulated blocking points.  Maildir-style locking, one lock per
folder:

* **read / delete** take the message's folder lock for one call;
* **mark** holds the folder lock *across* the write and the fsync —
  a genuine multi-operation critical section spanning a blocking
  yield (the durability barrier);
* **move** takes both folder locks in sorted key order (the global
  lock order that makes deadlock impossible by construction).

Safety does not rest on the locks alone: moves and deletes pop their
victim from the shared index at draw time, atomically with their first
lock enqueue, so no session ever targets a message that another
session's already-drawn op will unlink or rename (FIFO lock handoff
then serializes the survivors in enqueue order).

Session 0 draws from ``random.Random(seed)`` — exactly the sequential
benchmark's stream — so a one-session scheduled run reproduces the
sequential mailserver bit for bit (device image, simulated clock,
throughput).  Further sessions derive integer-keyed streams from the
same root seed.
"""

from __future__ import annotations

import random
from typing import Callable, Generator

from repro.sched import Blocked, Scheduler, SessionContext
from repro.workloads.mailserver import (
    MSG_BYTES,
    MailState,
    _msg_path,
    mail_mix,
    setup_mailserver,
)
from repro.workloads.scale import WorkloadScale

#: Per-session seed stride (odd 64-bit constant, splitmix64's golden
#: gamma); session 0 keeps the root seed itself so the N=1 run draws
#: the sequential benchmark's exact stream.
_SESSION_STRIDE = 0x9E3779B97F4A7C15


def _folder_key(folder: int) -> str:
    """The folder's lock, on every mount: a folder's messages share one
    parent directory and so one shard, which the key need not name."""
    return f"folder:{folder:02d}"


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

    ``ops_per_session`` defaults to the scale's sequential op count for
    one session (the bit-identity configuration) and to an even split
    of it otherwise, so total work tracks the sequential benchmark.
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
