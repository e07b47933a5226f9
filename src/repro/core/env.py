"""The key-value environment: two trees, one log, one cache.

Mirrors the BetrFS arrangement (§2.2): a metadata index and a data
index share one redo log, one node cache, and one checkpointing
schedule.  The environment is the layer the BetrFS "northbound" code
talks to.

Durability model
----------------

* Every mutating operation is appended to the WAL before entering the
  tree.  ``sync`` flushes the WAL with a barrier.
* Full data-page values are *elided* from the log when
  ``log_page_values`` is False (the v0.6 log engine, see
  ``repro/core/wal.py``); a ``sync`` while elided pages are volatile
  escalates to a checkpoint so the pages are durable in the tree.
* Checkpoints are periodic (60 s of simulated time, §3.3) and
  copy-on-write: dirty nodes are written to fresh extents, then the
  superblock flips, then old extents are reclaimed.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import List, Optional

from repro.core.cache import NodeCache
from repro.core.checkpoint import BlockManager, Superblock, read_superblock
from repro.core.config import BeTreeConfig
from repro.core.messages import PageFrame, Value, value_bytes, value_len
from repro.core.tree import BeTree
from repro.core.wal import (
    OP_DELETE,
    OP_INSERT,
    OP_INSERT_REF,
    OP_PATCH,
    OP_RANGE_DELETE,
    WriteAheadLog,
)
from repro.device.clock import SimClock
from repro.kmem.allocator import KernelAllocator
from repro.model.costs import CostModel
from repro.storage.filelayer import Southbound

MIB = 1024 * 1024

#: Values at least this large are treated as data pages for log elision.
PAGE_VALUE_THRESHOLD = 4096

#: Page inserts are value-logged until a burst of this many pages has
#: accumulated since the last sync; past it, the stream is clearly bulk
#: data and values are elided from the log (see repro/core/wal.py).
ELISION_BURST_PAGES = 64

#: WAL in-memory buffer is background-flushed past this size.
LOG_FLUSH_THRESHOLD = 4 * MIB

META = 0
DATA = 1


class KVEnv:
    """A B-epsilon-tree environment with a meta and a data index."""

    #: Traced when the observability scope traces; ``checkpoints``
    #: counts the one this call writes.
    SPANS = {
        "checkpoint": (
            "env.checkpoint", "checkpoint",
            lambda env: {"checkpoints": env.checkpoints + 1},
        ),
    }

    def __init__(
        self,
        storage: Southbound,
        clock: SimClock,
        costs: CostModel,
        alloc: KernelAllocator,
        config: BeTreeConfig,
        log_size: int = 64 * MIB,
        meta_size: int = 256 * MIB,
        data_size: int = 4096 * MIB,
        log_page_values: bool = True,
        obs=None,
        _recovering: bool = False,
    ) -> None:
        self.storage = storage
        self.clock = clock
        self.costs = costs
        self.alloc = alloc
        self.config = config
        self.log_page_values = log_page_values
        self.obs = obs
        self.cache = NodeCache(config.cache_bytes)
        if obs is not None:
            obs.register_object("tree.nodecache", self.cache, layer="cache")
            obs.instrument(self, self.SPANS)
        self.san = None
        if config.sanitize:
            from repro.check.sanitize import SanitizerSuite  # arch: allow[opt-in observer: sanitizers watch core from above; lazy import so core never loads them unless config.sanitize]

            self.san = SanitizerSuite(self)
            self.san.install()
        #: Blocking-point reporter installed by a scheduler for
        #: multi-tenant runs (repro.sched); ``None`` on sequential runs.
        self.block_signal = None
        #: Depth of nested tree critical sections (flush/split).  The
        #: scheduler asserts this is zero at every session suspension:
        #: no session may observe a half-mutated tree.
        self._critical_depth = 0
        self._next_node_id = 1
        self._next_msn = 1
        storage.create("superblock", 2 * Superblock.SLOT_SIZE)
        storage.create("log", log_size)
        storage.create("meta.db", meta_size)
        storage.create("data.db", data_size)
        self.wal = WriteAheadLog(
            storage, costs, config.log_section, on_full=self._on_log_full, obs=obs
        )
        self._sb_generation = 0
        self.last_checkpoint = clock.now
        self._elided_volatile = False
        self._pages_since_sync = 0
        self.recovery_lost = 0
        self.recovered_entries = 0
        self.checkpoints = 0
        if not _recovering:
            self.meta = BeTree(self, META, "meta.db")
            self.data = BeTree(self, DATA, "data.db")
            self.trees: List[BeTree] = [self.meta, self.data]

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def new_node_id(self) -> int:
        nid = self._next_node_id
        self._next_node_id += 1
        return nid

    def new_msn(self) -> int:
        msn = self._next_msn
        self._next_msn += 1
        return msn

    def note_write(self) -> None:
        """Hook invoked by trees on every root ingestion."""

    # ------------------------------------------------------------------
    # Critical-section tracking (reentrancy audit for repro.sched)
    # ------------------------------------------------------------------
    def enter_critical(self) -> None:
        self._critical_depth += 1

    def exit_critical(self) -> None:
        self._critical_depth -= 1

    @property
    def in_critical(self) -> bool:
        """True while a tree flush/split is mid-mutation."""
        return self._critical_depth > 0

    # ------------------------------------------------------------------
    # Logged mutating operations
    # ------------------------------------------------------------------
    def insert(
        self,
        tree_id: int,
        key: bytes,
        value: Value,
        by_ref: bool = False,
        log: bool = True,
    ) -> None:
        if log:
            raw_len = value_len(value)
            is_page = raw_len >= PAGE_VALUE_THRESHOLD
            if is_page:
                self._pages_since_sync += 1
            if (
                is_page
                and not self.log_page_values
                and self._pages_since_sync > ELISION_BURST_PAGES
            ):
                # Bulk stream: elide the value; the sync path will
                # checkpoint before the log entry becomes durable.
                raw = value_bytes(value)
                crc = zlib.crc32(raw) & 0xFFFFFFFF
                self.clock.cpu(self.costs.checksum(raw_len))
                self.wal.append(
                    OP_INSERT_REF,
                    tree_id,
                    key,
                    b"",
                    aux=crc,
                )
                self._elided_volatile = True
            else:
                self.wal.append(OP_INSERT, tree_id, key, value_bytes(value))
        self.trees[tree_id].put(key, value, by_ref=by_ref)
        self._post_op()

    def delete(self, tree_id: int, key: bytes, log: bool = True) -> None:
        if log:
            self.wal.append(OP_DELETE, tree_id, key)
        self.trees[tree_id].delete(key)
        self._post_op()

    def patch(
        self, tree_id: int, key: bytes, offset: int, data: bytes, log: bool = True
    ) -> None:
        if log:
            self.wal.append(OP_PATCH, tree_id, key, data, aux=offset)
        self.trees[tree_id].patch(key, offset, data)
        self._post_op()

    def range_delete(
        self, tree_id: int, start: bytes, end: bytes, log: bool = True
    ) -> None:
        if start >= end:
            return
        if log:
            self.wal.append(OP_RANGE_DELETE, tree_id, start, end)
        self.trees[tree_id].range_delete(start, end)
        self._post_op()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, tree_id: int, key: bytes):
        value = self.trees[tree_id].get(key)
        self._post_op()
        return value

    def range_query(
        self, tree_id: int, start: bytes, end: bytes, limit=None, seq_hint=False
    ):
        result = self.trees[tree_id].range_query(
            start, end, limit=limit, seq_hint=seq_hint
        )
        self._post_op()
        return result

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """fsync semantics: everything appended so far becomes durable."""
        if self.block_signal is not None:
            self.block_signal.note("journal_commit")
        if self._elided_volatile:
            self.checkpoint()
        self.wal.flush(durable=True)
        self._pages_since_sync = 0

    def checkpoint(self) -> None:
        """Write a consistent CoW checkpoint and truncate the log."""
        self.checkpoints += 1
        self.wal.flush(durable=False)
        for tree in self.trees:
            tree.write_dirty_nodes()
        self.storage.sync("meta.db")
        self.storage.sync("data.db")
        lsn = self.wal.next_lsn - 1
        self._write_superblock(lsn, clean=False)
        self._reclaim_extents()
        self.wal.truncate(lsn, self.wal.head)
        self._elided_volatile = False
        self.last_checkpoint = self.clock.now
        if self.san is not None:
            self.san.on_checkpoint()

    def _write_superblock(self, lsn: int, clean: bool) -> None:
        self._sb_generation += 1
        sb = Superblock()
        sb.generation = self._sb_generation
        sb.checkpoint_lsn = lsn
        sb.log_head = self.wal.head
        sb.log_tail = self.wal.tail
        sb.next_node_id = self._next_node_id
        sb.next_msn = self._next_msn
        sb.root_ids = [tree.root_id for tree in self.trees]
        sb.block_tables = [tree.blockman.serialize() for tree in self.trees]
        sb.clean_shutdown = clean
        blob = sb.frame()
        slot = self._sb_generation % 2
        self.clock.cpu(self.costs.serialize(len(blob)))
        self.storage.write("superblock", slot * Superblock.SLOT_SIZE, blob)
        self.storage.sync("superblock")

    def close(self) -> None:
        """Clean shutdown: checkpoint and mark the superblock clean."""
        self.wal.flush(durable=True)
        for tree in self.trees:
            tree.write_dirty_nodes()
        self.storage.sync("meta.db")
        self.storage.sync("data.db")
        self._write_superblock(self.wal.next_lsn - 1, clean=True)
        self._reclaim_extents()

    def _reclaim_extents(self) -> None:
        """Commit the CoW free lists and TRIM the reclaimed extents.

        The superblock that stopped referencing them is durable, so the
        old node copies are dead; telling the device keeps FTL garbage
        collection cheap (dead pages need no relocation).
        """
        for tree in self.trees:
            for off, ln in tree.blockman.commit_checkpoint():
                self.storage.discard(tree.file_name, off, ln)

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _post_op(self) -> None:
        if self.san is not None:
            self.san.on_post_op()
        flush_at = min(LOG_FLUSH_THRESHOLD, self.wal.region_size // 4)
        if self.wal._buffer_bytes > flush_at:
            self.wal.flush(durable=False)
        self.cache.evict_to_fit(self._evict_writer, self._evict_release)
        if (
            self.clock.now - self.last_checkpoint
            >= self.config.checkpoint_period
        ):
            self.checkpoint()

    @staticmethod
    def _evict_writer(owner, node) -> None:
        owner.write_node(node)

    @staticmethod
    def _evict_release(owner, node) -> None:
        owner.release_node_memory(node)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        storage: Southbound,
        clock: SimClock,
        costs: CostModel,
        alloc: KernelAllocator,
        config: BeTreeConfig,
        log_size: int = 64 * MIB,
        meta_size: int = 256 * MIB,
        data_size: int = 4096 * MIB,
        log_page_values: bool = True,
        obs=None,
    ) -> "KVEnv":
        """Open an existing environment, replaying the log if needed."""
        env = cls(
            storage,
            clock,
            costs,
            alloc,
            config,
            log_size=log_size,
            meta_size=meta_size,
            data_size=data_size,
            log_page_values=log_page_values,
            obs=obs,
            _recovering=True,
        )
        sb, _slots = read_superblock(partial(storage.read, "superblock"))
        if sb is None:
            # No checkpoint ever committed: the state is whatever the
            # log holds, replayed from the beginning of the region
            # against fresh trees.
            env.meta = BeTree(env, META, "meta.db")
            env.data = BeTree(env, DATA, "data.db")
            env.trees = [env.meta, env.data]
            env._replay_log(Superblock())
            if env.recovered_entries:
                env.checkpoint()
            return env
        env._sb_generation = sb.generation
        env._next_node_id = sb.next_node_id
        env._next_msn = sb.next_msn
        blockmans = [BlockManager.deserialize(t) for t in sb.block_tables]
        env.meta = BeTree(
            env, META, "meta.db", root_id=sb.root_ids[0], blockman=blockmans[0]
        )
        env.data = BeTree(
            env, DATA, "data.db", root_id=sb.root_ids[1], blockman=blockmans[1]
        )
        env.trees = [env.meta, env.data]
        env.wal.head = sb.log_head
        env.wal.tail = sb.log_tail
        env.wal.checkpoint_lsn = sb.checkpoint_lsn
        env.wal.next_lsn = sb.checkpoint_lsn + 1
        if not sb.clean_shutdown:
            env._replay_log(sb)
        env.checkpoint()
        return env

    def _replay_log(self, sb: Superblock) -> None:
        entries, end = WriteAheadLog.scan(
            lambda off, ln: self.storage.read("log", off, ln),
            self.storage.file_size("log"),
            sb.log_head,
            sb.checkpoint_lsn + 1,
        )
        last_lsn = sb.checkpoint_lsn
        for entry in entries:
            tree = self.trees[entry.tree_id]
            if entry.op == OP_INSERT:
                value: Value = entry.value
                if len(entry.value) >= PAGE_VALUE_THRESHOLD:
                    value = PageFrame(entry.value)
                tree.put(entry.key, value)
            elif entry.op == OP_INSERT_REF:
                # Value was elided; it must already be in the tree (the
                # sync path checkpoints before flushing such entries).
                existing = tree.get(entry.key)
                if existing is None or (
                    (zlib.crc32(value_bytes(existing)) & 0xFFFFFFFF) != entry.aux
                ):
                    self.recovery_lost += 1
            elif entry.op == OP_DELETE:
                tree.delete(entry.key)
            elif entry.op == OP_PATCH:
                tree.patch(entry.key, entry.aux, entry.value)
            elif entry.op == OP_RANGE_DELETE:
                tree.range_delete(entry.key, entry.value)
            last_lsn = entry.lsn
            self.recovered_entries += 1
        self.wal.next_lsn = last_lsn + 1
        self.wal.head = end

    def _on_log_full(self) -> None:
        self.checkpoint()
