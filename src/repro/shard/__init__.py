"""repro.shard: a partitioned namespace over multiple Bε-tree volumes.

Scale-out for the full-path-keyed design: N volumes (each its own SFL
slot and tree pair) behind one mount, all on the device's one log.
See :mod:`repro.shard.map` for the routing policy,
:mod:`repro.shard.env` and :mod:`repro.shard.backend` for the routers
(a cross-shard rename is one log record), and
:mod:`repro.shard.mount` for the assembled mount.
"""

from repro.shard.backend import ShardedBackend
from repro.shard.env import ShardedEnv
from repro.shard.map import ShardMap, parent_dir
from repro.shard.mount import ShardedBetrFS, make_sharded_betrfs

__all__ = [
    "ShardMap",
    "ShardedBackend",
    "ShardedBetrFS",
    "ShardedEnv",
    "make_sharded_betrfs",
    "parent_dir",
]
