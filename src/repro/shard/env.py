"""Sharded KV environment: the device's one ``KVEnv`` keyed by path.

:class:`ShardedEnv` routes single-key operations to the tree pair of
the volume that owns the key (via the :class:`~repro.shard.map.ShardMap`)
and fans range operations out over every volume's pair, so schedulers
and crash tests that were written against :class:`~repro.core.env.KVEnv`
run unchanged.  Every volume's trees share the environment's one log,
so a cross-shard move (:meth:`ShardedEnv.xrename`) is one batch record:
recovery replays all of it or none, and needs no pass of its own.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.env import TREE_FILES, KVEnv
from repro.core.wal import OP_DELETE, OP_INSERT
from repro.shard.map import ShardMap


class ShardedEnv:
    """Drop-in ``KVEnv`` facade: tree ``t`` of a key is tree ``t`` of
    the owning volume's pair."""

    def __init__(self, env: KVEnv, smap: ShardMap) -> None:
        self.env = env
        #: The device's environments: one, so each log is counted once.
        self.envs: List[KVEnv] = [env]
        self.map = smap

    # ------------------------------------------------------------------
    # Scheduler integration
    # ------------------------------------------------------------------
    @property
    def block_signal(self):
        return self.env.block_signal

    @block_signal.setter
    def block_signal(self, signal) -> None:
        self.env.block_signal = signal

    @property
    def in_critical(self) -> bool:
        return self.env.in_critical

    # ------------------------------------------------------------------
    # Routed single-key operations
    # ------------------------------------------------------------------
    def _tree_of(self, tree_id: int, key: bytes) -> int:
        """The environment tree holding ``key`` of logical tree ``tree_id``."""
        return self.map.owner_of_key(key) * len(TREE_FILES) + tree_id

    def get(self, tree_id: int, key: bytes):
        return self.env.get(self._tree_of(tree_id, key), key)

    def insert(
        self,
        tree_id: int,
        key: bytes,
        value,
        by_ref: bool = False,
        log: bool = True,
    ) -> None:
        self.env.insert(
            self._tree_of(tree_id, key), key, value, by_ref=by_ref, log=log
        )

    def delete(self, tree_id: int, key: bytes, log: bool = True) -> None:
        self.env.delete(self._tree_of(tree_id, key), key, log=log)

    def patch(
        self, tree_id: int, key: bytes, offset: int, data: bytes,
        log: bool = True,
    ) -> None:
        self.env.patch(self._tree_of(tree_id, key), key, offset, data, log=log)

    # ------------------------------------------------------------------
    # Fan-out operations (deterministic volume-index order)
    # ------------------------------------------------------------------
    def _pairs(self, tree_id: int) -> range:
        return range(tree_id, len(self.env.trees), len(TREE_FILES))

    def range_delete(
        self, tree_id: int, start: bytes, end: bytes, log: bool = True
    ) -> None:
        for tree in self._pairs(tree_id):
            self.env.range_delete(tree, start, end, log=log)

    def range_query(
        self, tree_id: int, start: bytes, end: bytes, limit=None
    ):
        rows: List[Tuple[bytes, object]] = []
        for tree in self._pairs(tree_id):
            rows.extend(self.env.range_query(tree, start, end, limit=limit))
        rows.sort(key=lambda kv: kv[0])
        if limit is not None:
            rows = rows[:limit]
        return rows

    def sync(self) -> None:
        self.env.sync()

    def checkpoint(self) -> None:
        self.env.checkpoint()

    # ------------------------------------------------------------------
    def xrename(self, tree_id: int, src: bytes, dst: bytes) -> None:
        """KV-level key move (the crashmc cross-shard rename primitive):
        one batch record, whichever volumes the two keys live on."""
        source = self._tree_of(tree_id, src)
        value = self.env.get(source, src)
        if value is None:
            return
        self.env.apply_batch(
            [
                (OP_INSERT, self._tree_of(tree_id, dst), dst, value),
                (OP_DELETE, source, src, b""),
            ]
        )
