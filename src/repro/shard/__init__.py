"""repro.shard: a partitioned namespace over multiple Bε-tree volumes.

Scale-out for the full-path-keyed design: N volumes (each its own SFL
slot and tree pair) behind one mount, all on the device's one log.
:mod:`repro.core.shardmap` is the routing policy; the mount's one
:class:`~repro.betrfs.northbound.BetrFSNorthbound` applies it to every
operation (a cross-volume rename is one log record), and
:mod:`repro.shard.mount` assembles the mount and its gauges.
"""

from repro.core.shardmap import ShardMap, parent_dir
from repro.shard.mount import ShardedBetrFS, make_sharded_betrfs

__all__ = [
    "ShardMap",
    "ShardedBetrFS",
    "make_sharded_betrfs",
    "parent_dir",
]
