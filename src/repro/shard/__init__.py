"""repro.shard: a partitioned namespace over multiple Bε-tree volumes.

Scale-out for the full-path-keyed design: N independent volumes (each
its own SFL slot, WAL, checkpoints, and Bε-trees) behind one mount.
See :mod:`repro.shard.map` for the routing policy,
:mod:`repro.shard.env` for the cross-shard two-phase protocol, and
:mod:`repro.shard.mount` for the assembled mount.
"""

from repro.shard.backend import ShardedBackend
from repro.shard.env import (
    INTENT_END,
    INTENT_PREFIX,
    ShardedEnv,
    pack_intent,
    unpack_intent,
)
from repro.shard.map import ShardMap, parent_dir
from repro.shard.mount import ShardedBetrFS, make_sharded_betrfs

__all__ = [
    "INTENT_END",
    "INTENT_PREFIX",
    "ShardMap",
    "ShardedBackend",
    "ShardedBetrFS",
    "ShardedEnv",
    "make_sharded_betrfs",
    "pack_intent",
    "parent_dir",
    "unpack_intent",
]
