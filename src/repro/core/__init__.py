"""The B-epsilon-tree write-optimized key-value store.

This package is a complete, from-scratch implementation of the Bε-tree
engine BetrFS is built on (ported from TokuDB in the paper):

* internal nodes with message buffers, leaves with basement nodes;
* point messages (insert, delete, patch/blind-update, insert-by-ref)
  and range messages (range delete) with the PacMan compaction;
* flushing with write-optimization, node splits/merges;
* apply-on-query (both the HDD-era eager policy and the paper's §4
  lazy policy);
* a redo log (WAL) with sequence numbers and checksums, periodic
  copy-on-write checkpoints, and crash recovery;
* full node (de)serialization with lifting-style prefix compression and
  the §6 aligned page layout;
* a node cache and tree-level read-ahead (§3.2).
"""

from repro.core.config import BeTreeConfig
from repro.core.env import KVEnv
from repro.core.messages import (
    Delete,
    Insert,
    InsertByRef,
    PageFrame,
    Patch,
    RangeDelete,
)
from repro.core.tree import BeTree

__all__ = [
    "BeTreeConfig",
    "BeTree",
    "KVEnv",
    "Insert",
    "InsertByRef",
    "Delete",
    "Patch",
    "RangeDelete",
    "PageFrame",
]
