"""Sharded KV environment: N volumes behind one ``KVEnv``-shaped facade.

:class:`ShardedEnv` routes single-key operations to the owning volume
(via the :class:`~repro.shard.map.ShardMap`) and fans durability
operations out to every volume, so schedulers and crash tests that
were written against :class:`~repro.core.env.KVEnv` run unchanged.

Cross-shard moves use a **two-phase intent protocol** over the
per-volume WALs (there is no global journal to make a multi-volume
rename atomic):

1. *Intent*: the full batch of inserts/deletes is packed into one
   intent record, written under a reserved key on the coordinator
   volume's metadata tree, and made durable with a sync.  From this
   point the move is certain: recovery rolls it forward.
2. *Apply*: inserts are applied to the destination volumes, which are
   then synced (coordinator-first index order, deterministically).
3. *Resolve*: deletes are applied, the volumes other than the
   coordinator that took a delete are synced (index order), and the
   intent record is deleted.  No final sync — if the resolution is lost
   in a crash, recovery simply re-applies the (idempotent) batch and
   retires the intent.  The coordinator's own deletes need no sync: its
   log holds them ahead of the intent delete, and replay stops at the
   first break.

:meth:`ShardedEnv.resolve_intents` is the recovery half: after each
volume has replayed its own WAL, every surviving intent record is
re-applied and removed, in intent-sequence order whichever volume
holds it — a later move may move the name an earlier one made.  The
intent payload is self-contained (it embeds the moved values), so
resolution never depends on source entries that phase 3 may already
have deleted.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.core.env import META, KVEnv
from repro.core.messages import value_bytes
from repro.shard.map import ShardMap

#: Reserved key range for intent records on the coordinator's META
#: tree.  A leading NUL byte sorts before every real key (paths start
#: with "/", crash-test keys with alphanumerics), so intents never
#: collide with — or appear in range scans of — user data.
INTENT_PREFIX = b"\x00xshard\x00"
INTENT_END = b"\x00xshard\x01"

#: One batched write/delete, tagged with its destination shard.
Insert = Tuple[int, int, bytes, bytes]  # (shard, tree, key, value)
Delete = Tuple[int, int, bytes]  # (shard, tree, key)


def pack_intent(
    inserts: Sequence[Insert], deletes: Sequence[Delete]
) -> bytes:
    """Serialize one cross-shard batch into an intent-record payload."""
    parts = [struct.pack(">I", len(inserts))]
    for shard, tree, key, value in inserts:
        parts.append(struct.pack(">BBHI", shard, tree, len(key), len(value)))
        parts.append(key)
        parts.append(value)
    parts.append(struct.pack(">I", len(deletes)))
    for shard, tree, key in deletes:
        parts.append(struct.pack(">BBH", shard, tree, len(key)))
        parts.append(key)
    return b"".join(parts)


def unpack_intent(payload: bytes) -> Tuple[List[Insert], List[Delete]]:
    """Inverse of :func:`pack_intent`."""
    inserts: List[Insert] = []
    deletes: List[Delete] = []
    off = 0
    (n_inserts,) = struct.unpack_from(">I", payload, off)
    off += 4
    for _ in range(n_inserts):
        shard, tree, klen, vlen = struct.unpack_from(">BBHI", payload, off)
        off += 8
        key = payload[off : off + klen]
        off += klen
        value = payload[off : off + vlen]
        off += vlen
        inserts.append((shard, tree, key, value))
    (n_deletes,) = struct.unpack_from(">I", payload, off)
    off += 4
    for _ in range(n_deletes):
        shard, tree, klen = struct.unpack_from(">BBH", payload, off)
        off += 4
        deletes.append((shard, tree, payload[off : off + klen]))
        off += klen
    return inserts, deletes


class ShardedEnv:
    """Drop-in ``KVEnv`` facade over N per-volume environments."""

    def __init__(self, envs: Sequence[KVEnv], smap: ShardMap) -> None:
        if len(envs) != smap.shards:
            raise ValueError(
                f"shard map expects {smap.shards} volumes, got {len(envs)}"
            )
        self.envs: List[KVEnv] = list(envs)
        self.map = smap
        self.clock = self.envs[0].clock
        self.costs = self.envs[0].costs
        self._signal = None
        self._intent_seq = 0
        #: Completed two-phase batches (cross-shard renames/moves).
        self.xshard_ops = 0

    # ------------------------------------------------------------------
    # Scheduler integration: one signal, every volume reports to it.
    # ------------------------------------------------------------------
    @property
    def block_signal(self):
        return self._signal

    @block_signal.setter
    def block_signal(self, signal) -> None:
        self._signal = signal
        for env in self.envs:
            env.block_signal = signal

    @property
    def in_critical(self) -> bool:
        for env in self.envs:
            if env.in_critical:
                return True
        return False

    # ------------------------------------------------------------------
    # Routed single-key operations
    # ------------------------------------------------------------------
    def shard_of_key(self, key: bytes) -> int:
        return self.map.owner_of_key(key)

    def get(self, tree_id: int, key: bytes):
        return self.envs[self.shard_of_key(key)].get(tree_id, key)

    def insert(
        self,
        tree_id: int,
        key: bytes,
        value,
        by_ref: bool = False,
        log: bool = True,
    ) -> None:
        self.envs[self.shard_of_key(key)].insert(
            tree_id, key, value, by_ref=by_ref, log=log
        )

    def delete(self, tree_id: int, key: bytes, log: bool = True) -> None:
        self.envs[self.shard_of_key(key)].delete(tree_id, key, log=log)

    def patch(
        self, tree_id: int, key: bytes, offset: int, data: bytes,
        log: bool = True,
    ) -> None:
        self.envs[self.shard_of_key(key)].patch(
            tree_id, key, offset, data, log=log
        )

    # ------------------------------------------------------------------
    # Fan-out operations (deterministic volume-index order)
    # ------------------------------------------------------------------
    def range_delete(
        self, tree_id: int, start: bytes, end: bytes, log: bool = True
    ) -> None:
        for env in self.envs:
            env.range_delete(tree_id, start, end, log=log)

    def range_query(
        self, tree_id: int, start: bytes, end: bytes, limit=None
    ):
        rows: List[Tuple[bytes, object]] = []
        for env in self.envs:
            rows.extend(env.range_query(tree_id, start, end, limit=limit))
        rows.sort(key=lambda kv: kv[0])
        if limit is not None:
            rows = rows[:limit]
        return rows

    def sync(self) -> None:
        for env in self.envs:
            env.sync()

    def checkpoint(self) -> None:
        for env in self.envs:
            env.checkpoint()

    # ------------------------------------------------------------------
    # Two-phase cross-shard protocol
    # ------------------------------------------------------------------
    def two_phase(
        self,
        coordinator: int,
        inserts: Sequence[Insert],
        deletes: Sequence[Delete],
    ) -> None:
        """Apply a multi-shard batch atomically across crash points."""
        payload = pack_intent(inserts, deletes)
        self.clock.cpu(self.costs.memcpy(len(payload)))
        intent_key = INTENT_PREFIX + struct.pack(">Q", self._intent_seq)
        self._intent_seq += 1
        coord = self.envs[coordinator]
        # Phase 1: the intent is durable before any effect is visible.
        coord.insert(META, intent_key, payload)
        coord.sync()
        # Phase 2: apply + sync the destinations, index order.
        for shard, tree, key, value in inserts:
            self.envs[shard].insert(tree, key, value)
        for shard in sorted({ins[0] for ins in inserts}):
            self.envs[shard].sync()
        # Phase 3: retire the sources, then the intent.  A source delete
        # on another volume is durable before the intent that would redo
        # it can be: otherwise a crash after the coordinator's next sync
        # keeps the intent's retirement and loses the delete.  The
        # intent delete itself is not synced — recovery re-applies the
        # batch from the intent record if this tail is lost.
        for shard, tree, key in deletes:
            self.envs[shard].delete(tree, key)
        for shard in sorted({d[0] for d in deletes} - {coordinator}):
            self.envs[shard].sync()
        coord.delete(META, intent_key)
        self.xshard_ops += 1

    def xrename(self, tree_id: int, src: bytes, dst: bytes) -> None:
        """KV-level key move (the crashmc cross-shard rename primitive)."""
        source = self.shard_of_key(src)
        dest = self.shard_of_key(dst)
        value = self.envs[source].get(tree_id, src)
        if value is None:
            return
        value = value_bytes(value)
        if source == dest:
            self.envs[dest].insert(tree_id, dst, value)
            self.envs[source].delete(tree_id, src)
            return
        self.two_phase(
            source,
            [(dest, tree_id, dst, value)],
            [(source, tree_id, src)],
        )

    def resolve_intents(self) -> int:
        """Recovery: roll surviving intent records forward; returns the
        number resolved.  Idempotent — re-applying a batch that already
        ran (or partially ran) converges to the same state.

        Intents apply in sequence order across every volume: two moves
        whose intents both survived on different coordinators must land
        as they committed, or the earlier one re-creates the name the
        later one moved away.  New intents number past the survivors."""
        surviving = [
            (intent_key, env, value)
            for env in self.envs
            for intent_key, value in env.range_query(
                META, INTENT_PREFIX, INTENT_END
            )
        ]
        # The big-endian sequence number after the prefix sorts as bytes.
        surviving.sort(key=lambda row: row[0])
        for intent_key, env, value in surviving:
            payload = value_bytes(value)
            self.clock.cpu(self.costs.memcpy(len(payload)))
            inserts, deletes = unpack_intent(payload)
            for shard, tree, key, val in inserts:
                self.envs[shard].insert(tree, key, val)
            for shard, tree, key in deletes:
                self.envs[shard].delete(tree, key)
            env.delete(META, intent_key)
        if surviving:
            (last,) = struct.unpack(">Q", surviving[-1][0][len(INTENT_PREFIX):])
            self._intent_seq = max(self._intent_seq, last + 1)
        self.xshard_ops += len(surviving)
        return len(surviving)

    def pending_intents(self) -> int:
        """Unresolved intent records across all volumes (normally 0)."""
        return sum(
            len(env.range_query(META, INTENT_PREFIX, INTENT_END))
            for env in self.envs
        )
