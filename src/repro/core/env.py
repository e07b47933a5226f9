"""The key-value environment: one log, one cache, a tree pair per volume.

Mirrors the BetrFS arrangement (§2.2): a metadata index and a data
index share one redo log, one node cache, and one checkpointing
schedule.  The environment is the layer the BetrFS "northbound" code
talks to.

One environment serves a whole device.  Each volume (an SFL slot,
``storages[i]``) holds one meta and one data tree, tree ids ``2i`` and
``2i + 1``; the first volume also holds the superblock and the log.
A device with one volume is the plain two-tree environment.  Since
every tree is on the one log, ``apply_batch`` makes inserts and
deletes on any trees atomic (one ``OP_BATCH`` record).

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
  superblock flips, then old extents are reclaimed.  A checkpoint
  covers every tree of the device.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.core.cache import NodeCache
from repro.core.checkpoint import BlockManager, Superblock, read_superblock
from repro.core.config import BeTreeConfig
from repro.core.messages import PageFrame, Value, value_bytes, value_len
from repro.core.tree import BeTree
from repro.core.wal import (
    MAX_TREES,
    OP_BATCH,
    OP_DELETE,
    OP_INSERT,
    OP_INSERT_REF,
    OP_PATCH,
    OP_RANGE_DELETE,
    WriteAheadLog,
    decode_batch,
    encode_batch,
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

#: A volume's tree pair: its files, in tree-id order (META, DATA).
TREE_FILES = ("meta.db", "data.db")

#: Volumes one environment (one log) can name.
MAX_VOLUMES = MAX_TREES // len(TREE_FILES)


class KVEnv:
    """A B-epsilon-tree environment: a meta and a data index per volume."""

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
        volumes: Sequence[Southbound] = (),
        _recovering: bool = False,
    ) -> None:
        #: One southbound per volume: ``storage`` (which also holds the
        #: superblock and the log), then ``volumes``.
        self.storage = storage
        self.storages: List[Southbound] = [storage, *volumes]
        self.clock = clock
        self.costs = costs
        self.alloc = alloc
        self.config = config
        self.log_page_values = log_page_values
        self.obs = obs
        self.cache = NodeCache(config.cache_bytes * len(self.storages))
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
        for volume in self.storages:
            volume.create("meta.db", meta_size)
            volume.create("data.db", data_size)
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
            self._open_trees()

    def _open_trees(self, sb: Optional[Superblock] = None) -> None:
        """Every volume's tree pair: fresh, or as ``sb`` checkpointed
        them."""
        self.trees: List[BeTree] = []
        for index, volume in enumerate(self.storages):
            for file_name in TREE_FILES:
                tree_id = len(self.trees)
                # Trees past the first volume report under their volume.
                name = file_name if index == 0 else f"{file_name}.{index}"
                self.trees.append(BeTree(
                    self, tree_id, volume, file_name, name,
                    root_id=None if sb is None else sb.root_ids[tree_id],
                    blockman=None if sb is None
                    else BlockManager.deserialize(sb.block_tables[tree_id]),
                ))
        self.meta, self.data = self.trees[META], self.trees[DATA]

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

    def apply_batch(self, ops: Sequence[Tuple[int, int, bytes, Value]]) -> None:
        """Inserts and deletes, ``(OP_INSERT | OP_DELETE, tree_id, key,
        value)`` on any trees, as one log record: recovery replays all
        of them or none (a cross-volume rename, ``repro.shard``)."""
        self.wal.append(
            OP_BATCH, 0, b"",
            encode_batch([(op, t, key, value_bytes(v)) for op, t, key, v in ops]),
        )
        for op, tree_id, key, value in ops:
            if op == OP_INSERT:
                self.trees[tree_id].put(key, value)
            else:
                self.trees[tree_id].delete(key)
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
        self._flush_trees()
        lsn = self.wal.next_lsn - 1
        self._write_superblock(lsn, clean=False)
        self._reclaim_extents()
        self.wal.truncate(lsn, self.wal.head)
        self._elided_volatile = False
        self.last_checkpoint = self.clock.now
        if self.san is not None:
            self.san.on_checkpoint()

    def _flush_trees(self) -> None:
        """Every tree's dirty nodes to its file, then each file synced."""
        for tree in self.trees:
            tree.write_dirty_nodes()
        for tree in self.trees:
            tree.storage.sync(tree.file_name)

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
        self._flush_trees()
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
                tree.storage.discard(tree.file_name, off, ln)

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
        volumes: Sequence[Southbound] = (),
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
            volumes=volumes,
            _recovering=True,
        )
        sb, _slots = read_superblock(partial(env.storage.read, "superblock"))
        if sb is None:
            # No checkpoint ever committed: the state is whatever the
            # log holds, replayed from the beginning of the region
            # against fresh trees.
            env._open_trees()
            env._replay_log(Superblock())
            if env.recovered_entries:
                env.checkpoint()
            return env
        env._sb_generation = sb.generation
        env._next_node_id = sb.next_node_id
        env._next_msn = sb.next_msn
        if len(sb.root_ids) != len(TREE_FILES) * len(env.storages):
            raise ValueError(
                f"the superblock names {len(sb.root_ids)} trees; "
                f"{len(env.storages)} volume(s) hold {len(TREE_FILES)} each"
            )
        env._open_trees(sb)
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
            for one in decode_batch(entry) if entry.op == OP_BATCH else (entry,):
                self._redo(one)
            last_lsn = entry.lsn
            self.recovered_entries += 1
        self.wal.next_lsn = last_lsn + 1
        self.wal.head = end

    def _redo(self, entry) -> None:
        """Re-apply one replayed log entry to its tree."""
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

    def _on_log_full(self) -> None:
        self.checkpoint()
