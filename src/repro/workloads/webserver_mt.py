"""Multi-tenant webserver: many read-mostly clients, per-vhost logs.

The filebench *webserver* personality at multi-tenant scale: N client
sessions over one shared ``/www`` document tree of D virtual-host
directories.  Each session has a *home* vhost (``sid mod D``) it
favors — the locality that makes shard affinity meaningful — and runs
a 90/10 mix:

* **GET** (90%) — read one whole document, 70% from the home vhost
  and 30% from a uniformly random one (cross-shard traffic on a
  sharded mount);
* **log append** (10%) — append one line to the home vhost's
  ``access.log`` and fsync it, holding the vhost's log lock across
  both calls (the append offset is shared state; the fsync is a
  blocking yield inside the critical section).

Every session draws from its **own** RNG stream, derived from the
root seed by integer arithmetic only — ``(seed + sid * stride) ^
salt`` — mirroring the scheduler's ``_POLICY_STREAM`` idiom.  Same
seed, same sessions: the op streams, the interleaving, and therefore
the device image are byte-identical across runs (pinned by
``tests/test_webserver_mt.py``).

The log lock key is ``weblog:{d:02d}`` on every mount: a vhost's log
lives on exactly one shard, so naming the shard in the key would add
nothing.  On a sharded mount each session is spawned with its home
vhost's shard as affinity (accounting only).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, List

from repro.sched import Blocked, Scheduler, SessionContext
from repro.workloads.scale import WorkloadScale

DOC_BYTES = 16384  # ~16 KiB average static document

#: Per-session stream salt (webserver's own stream family, xored into
#: the strided per-session seed; never ``hash(str)``).
_WEB_STREAM = 0x3EB5E6
#: Same odd 64-bit stride as the mailserver sessions (splitmix64 gamma).
_SESSION_STRIDE = 0x9E3779B97F4A7C15


def _doc_path(vhost: int, doc: int) -> str:
    return f"/www/vhost{vhost:02d}/doc{doc:04d}.html"


def _log_path(vhost: int) -> str:
    return f"/www/vhost{vhost:02d}/access.log"


def _log_key(vhost: int) -> str:
    return f"weblog:{vhost:02d}"


def session_rng(seed: int, sid: int) -> random.Random:
    """The per-session stream: strided, then salted into the webserver
    family so it never collides with the policy or mailserver streams."""
    return random.Random((seed + sid * _SESSION_STRIDE) ^ _WEB_STREAM)


def setup_webserver(mount, scale: WorkloadScale) -> int:
    """Create the ``/www`` tree; returns the vhost count."""
    vfs = mount.vfs
    vhosts = scale.mail_folders
    docs = scale.mail_msgs_per_folder
    body = b"<html>" + b"w" * (DOC_BYTES - 13) + b"</html>"
    vfs.mkdir("/www")
    for v in range(vhosts):
        vfs.mkdir(f"/www/vhost{v:02d}")
        for d in range(docs):
            path = _doc_path(v, d)
            vfs.create(path)
            vfs.write(path, 0, body)
        vfs.create(_log_path(v))
    vfs.sync()
    mount.drop_caches()
    return vhosts


def _make_script(
    vfs,
    home: int,
    vhosts: int,
    docs: int,
    log_sizes: Dict[int, int],
    rng: random.Random,
    n_ops: int,
) -> Callable[[SessionContext], Generator[Blocked, None, None]]:
    """One client: GETs, and log appends under the vhost's log lock."""

    def script(ctx: SessionContext) -> Generator[Blocked, None, None]:
        for _ in range(n_ops):
            if rng.random() < 0.90:  # GET
                v = home if rng.random() < 0.70 else rng.randrange(vhosts)
                doc = rng.randrange(docs)
                yield from ctx.run(vfs.read, _doc_path(v, doc), 0, DOC_BYTES)
            else:  # log append + fsync under the vhost's log lock
                line = b"GET /doc%04d 200\n" % rng.randrange(docs)
                key = _log_key(home)
                yield from ctx.acquire(key)
                offset = log_sizes[home]
                log_sizes[home] = offset + len(line)
                yield from ctx.run(vfs.write, _log_path(home), offset, line)
                yield from ctx.run(vfs.fsync, _log_path(home))
                ctx.release(key)
            ctx.op_done()

    return script


def webserver_mt(
    mount,
    scale: WorkloadScale,
    sessions: int = 8,
    seed: int = 11,
    policy: str = "fifo",
    ops_per_session: int = 0,
) -> Scheduler:
    """Run ``sessions`` concurrent web clients; returns the scheduler."""
    vhosts = setup_webserver(mount, scale)
    docs = scale.mail_msgs_per_folder
    log_sizes: Dict[int, int] = {v: 0 for v in range(vhosts)}
    if ops_per_session <= 0:
        ops_per_session = max(1, scale.mail_ops // sessions)
    sched = Scheduler(mount, policy=policy, seed=seed)
    smap = getattr(mount, "shard_map", None)
    for sid in range(sessions):
        rng = session_rng(seed, sid)
        home = sid % vhosts
        script = _make_script(
            mount.vfs, home, vhosts, docs, log_sizes, rng, ops_per_session
        )
        affinity = None
        if smap is not None:
            affinity = smap.owner_of_entry(_log_path(home))
        sched.spawn(f"client{sid:03d}", script, affinity=affinity)
    sched.run()
    mount.vfs.sync()
    return sched
