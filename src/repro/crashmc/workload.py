"""Scripted KV workloads the crash explorer drives to crash points.

Miniature, deterministic renditions of the paper's benchmark shapes,
expressed as logical :class:`~repro.crashmc.oracle.Op` lists against
the raw KV environment (META + DATA trees):

* ``tokubench`` — bulk small-file creation: directory-grouped inserts
  into META, periodic syncs, and an unsynced tail;
* ``mailserver`` — a maildir-style mix: deliveries (insert), flag
  updates (patch), moves (insert+delete), folder purges
  (range_delete), page-sized bodies in DATA, and frequent
  fsync-like syncs.

Plain KV mutations buffer inside the WAL (no device writes until a
flush), so every few ops the scripts emit ``wflush`` — push the WAL
buffer to the device *without* a barrier — to populate the open
barrier epoch with at-risk writes.  That is exactly the window a
volatile write cache exposes, and it is where crash plans bite.

Generators take an integer seed and are pure: same seed, same op list
(the purity lint forbids ambient randomness, so the RNG is explicit
and the seed derivation is integer arithmetic on crc32, never a
salted ``hash(str)``).
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, List

from repro.core.env import DATA, META
from repro.core.messages import PageFrame
from repro.crashmc.oracle import Op
from repro.shard.map import ShardMap


def derive_rng(seed: int, label: str) -> random.Random:
    """A stream-named RNG from one root seed, int-only derivation."""
    return random.Random((seed & 0xFFFFFFFF) ^ zlib.crc32(label.encode("ascii")))


def tokubench_kv(seed: int) -> List[Op]:
    rng = derive_rng(seed, "tokubench")
    ops: List[Op] = []
    dirs = [b"d%02d" % i for i in range(6)]
    created = 0
    for batch in range(10):
        for _ in range(12):
            d = dirs[rng.randrange(len(dirs))]
            name = b"%s/f%04d" % (d, created)
            created += 1
            ops.append(Op("insert", META, name, b"inode:%05d" % rng.randrange(99999)))
            if created % 4 == 0:
                ops.append(Op("wflush"))
        if batch % 3 == 2:
            ops.append(Op("sync"))
    # Unsynced tail: the at-risk creates a crash is allowed to drop.
    for i in range(8):
        ops.append(Op("insert", META, b"tail/f%02d" % i, b"late"))
        if i % 2:
            ops.append(Op("wflush"))
    return ops


def mailserver_kv(seed: int) -> List[Op]:
    rng = derive_rng(seed, "mailserver")
    ops: List[Op] = []
    boxes = [b"inbox", b"work", b"spam"]
    live: List[bytes] = []
    uid = 0

    def deliver() -> None:
        nonlocal uid
        box = boxes[rng.randrange(len(boxes))]
        key = b"%s/%04d" % (box, uid)
        uid += 1
        live.append(key)
        ops.append(Op("insert", META, key, b"S=%d F=" % rng.randrange(9000)))
        if rng.random() < 0.4:
            ops.append(Op("insert", DATA, key, PageFrame(bytes([uid % 251]) * 4096)))

    for _ in range(20):  # mailbox setup
        deliver()
    ops.append(Op("checkpoint"))

    for step in range(90):
        roll = rng.random()
        if roll < 0.45 or not live:
            deliver()
        elif roll < 0.65:  # flag update: patch the header in place
            key = live[rng.randrange(len(live))]
            ops.append(Op("patch", META, key, b"RS", offset=0))
        elif roll < 0.80:  # move: new name, delete old
            old = live.pop(rng.randrange(len(live)))
            new = b"mv/" + old
            live.append(new)
            ops.append(Op("insert", META, new, b"moved"))
            ops.append(Op("delete", META, old))
        elif roll < 0.90:  # read path is exercised at check time
            key = live[rng.randrange(len(live))]
            ops.append(Op("delete", META, key))
            if key in live:
                live.remove(key)
        else:  # purge the spam folder
            ops.append(Op("range_delete", META, b"spam/", end=b"spam0"))
            live[:] = [k for k in live if not k.startswith(b"spam/")]
        if step % 5 == 4:
            ops.append(Op("wflush"))
        if step % 15 == 14:
            ops.append(Op("sync"))
    # Unsynced tail.
    deliver()
    deliver()
    ops.append(Op("wflush"))
    return ops


def mailserver_mt_kv(seed: int) -> List[Op]:
    """Multi-tenant mailserver: four users' op streams interleaved by a
    seeded lottery, mirroring what ``repro.sched`` produces at the KV
    layer.  Each user works a private mailbox prefix and fsyncs its own
    mark operations, so the begin/commit oracle sees per-session
    durability points interleaved with *other* sessions' still-pending
    mutations — exactly the window a crash must not smear across."""
    policy = derive_rng(seed, "mailserver_mt/policy")
    n_users = 4
    rngs = [derive_rng(seed, "mailserver_mt/u%d" % sid) for sid in range(n_users)]
    live: List[List[bytes]] = [[] for _ in range(n_users)]
    uid = [0] * n_users
    ops: List[Op] = []

    def deliver(sid: int) -> None:
        rng = rngs[sid]
        key = b"u%d/inbox/%04d" % (sid, uid[sid])
        uid[sid] += 1
        live[sid].append(key)
        ops.append(Op("insert", META, key, b"S=%d F=" % rng.randrange(9000)))
        if rng.random() < 0.4:
            ops.append(
                Op("insert", DATA, key, PageFrame(bytes([uid[sid] % 251]) * 4096))
            )

    for sid in range(n_users):  # per-user mailbox setup
        deliver(sid)
        deliver(sid)
    ops.append(Op("checkpoint"))

    for step in range(100):
        sid = policy.randrange(n_users)  # the lottery dispatch
        rng = rngs[sid]
        roll = rng.random()
        if roll < 0.40 or not live[sid]:
            deliver(sid)
        elif roll < 0.65:  # mark: patch + this user's own fsync
            key = live[sid][rng.randrange(len(live[sid]))]
            ops.append(Op("patch", META, key, b"RS", offset=0))
            if rng.random() < 0.5:
                ops.append(Op("sync"))
        elif roll < 0.85:  # move into the user's archive folder
            old = live[sid].pop(rng.randrange(len(live[sid])))
            new = b"u%d/mv/" % sid + old.rsplit(b"/", 1)[1]
            live[sid].append(new)
            ops.append(Op("insert", META, new, b"moved"))
            ops.append(Op("delete", META, old))
        else:  # delete
            key = live[sid].pop(rng.randrange(len(live[sid])))
            ops.append(Op("delete", META, key))
        if step % 4 == 3:
            ops.append(Op("wflush"))
    # Unsynced multi-user tail: pending ops from several sessions.
    for sid in range(n_users):
        deliver(sid)
    ops.append(Op("wflush"))
    return ops


def xshard_homes(smap: ShardMap) -> List[bytes]:
    """One directory prefix per shard, pinned by probing the routing
    function — deterministic, and stable as long as the map is."""
    homes: List[bytes] = [b""] * smap.shards
    missing = smap.shards
    i = 0
    while missing:
        name = "dir%02d" % i
        owner = smap.owner_of_entry(name + "/x")
        if not homes[owner]:
            homes[owner] = name.encode("ascii")
            missing -= 1
        i += 1
    return homes


def xshard_rename_kv(seed: int) -> List[Op]:
    """Cross-shard rename torture (runs on the 2-volume shard stack).

    Two directory homes pinned to different volumes; the mix delivers
    into both, patches in place, and keeps moving messages across the
    shard boundary with ``xrename`` — the two-phase intent protocol —
    so crash points land before, inside, and after every phase.
    Destinations use fresh uids, so no other pending op ever aliases
    an in-flight move's keys (the per-shard prefix oracle relies on
    this)."""
    smap = ShardMap(2)
    homes = xshard_homes(smap)
    rng = derive_rng(seed, "xshard_rename")
    ops: List[Op] = []
    live: List[List[bytes]] = [[], []]
    has_data: Dict[bytes, None] = {}
    uid = 0

    def deliver(side: int) -> None:
        nonlocal uid
        key = b"%s/%04d" % (homes[side], uid)
        uid += 1
        live[side].append(key)
        ops.append(Op("insert", META, key, b"S=%d F=" % rng.randrange(9000)))
        if rng.random() < 0.3:
            has_data[key] = None
            ops.append(
                Op("insert", DATA, key, PageFrame(bytes([uid % 251]) * 4096))
            )

    for _ in range(6):
        deliver(0)
        deliver(1)
    ops.append(Op("checkpoint"))

    for step in range(70):
        side = rng.randrange(2)
        roll = rng.random()
        if roll < 0.35 or not live[side]:
            deliver(side)
        elif roll < 0.60:  # move across the shard boundary
            old = live[side].pop(rng.randrange(len(live[side])))
            new = b"%s/x%04d" % (homes[1 - side], uid)
            uid += 1
            live[1 - side].append(new)
            ops.append(Op("xrename", META, old, end=new))
            if has_data.pop(old, 0) is None:
                has_data[new] = None
                ops.append(Op("xrename", DATA, old, end=new))
        elif roll < 0.80:  # flag update in place
            key = live[side][rng.randrange(len(live[side]))]
            ops.append(Op("patch", META, key, b"RS", offset=0))
            if rng.random() < 0.3:
                ops.append(Op("sync"))
        else:
            key = live[side].pop(rng.randrange(len(live[side])))
            has_data.pop(key, 0)
            ops.append(Op("delete", META, key))
        if step % 3 == 2:
            ops.append(Op("wflush"))
        if step % 12 == 11:
            ops.append(Op("sync"))
    # Unsynced tail: an in-flight cross-shard move at crash time.
    deliver(0)
    old = live[0].pop()
    ops.append(Op("xrename", META, old, end=b"%s/x%04d" % (homes[1], uid)))
    ops.append(Op("wflush"))
    return ops


#: Registry the explorer and the harness ``torture`` target iterate,
#: in deterministic order.
WORKLOADS: Dict[str, Callable[[int], List[Op]]] = {
    "tokubench": tokubench_kv,
    "mailserver": mailserver_kv,
    "mailserver_mt": mailserver_mt_kv,
    "xshard_rename": xshard_rename_kv,
}
