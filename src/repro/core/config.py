"""B-epsilon-tree configuration.

Node geometry defaults follow the paper (2-4 MiB nodes, basement nodes
of ~128 KiB, 32 per leaf).  Benchmarks scale the geometry down together
with the workload so tree depth and flush behaviour stay representative
while Python runs in reasonable wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KIB = 1024
MIB = 1024 * KIB


@dataclass
class BeTreeConfig:
    """Tunable parameters and feature flags for one tree."""

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    #: Target on-disk node size.
    node_size: int = 4 * MIB
    #: Target basement-node (sub-leaf) size.
    basement_size: int = 128 * KIB
    #: Maximum children of an internal node.
    fanout: int = 16
    #: An internal node flushes when its buffer exceeds this many bytes.
    buffer_size: int = 3 * MIB

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    #: Node-cache budget in bytes.
    cache_bytes: int = 64 * MIB

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    #: Seconds of simulated time between checkpoints (paper: 60 s).
    checkpoint_period: float = 60.0

    # ------------------------------------------------------------------
    # Feature flags (paper optimizations)
    # ------------------------------------------------------------------
    #: Run PacMan compaction of range messages during flushes.
    pacman: bool = True
    #: §4 +QRY: only apply pending messages on a query when at least one
    #: affects the query's result.  False = the HDD-era eager policy.
    lazy_apply_on_query: bool = False
    #: §6 +PGSH: aligned node layout + by-reference page movement.
    page_sharing: bool = False
    #: §3.2: tree-level read-ahead (prefetch next basements/leaf).
    tree_readahead: bool = False
    #: Compress nodes on write (paper runs with compression *disabled*).
    compression: bool = False
    #: Lifting-style common-prefix elision during serialization.
    lifting: bool = True
    #: Install the runtime sanitizers (``repro.check.sanitize``).  Pure
    #: observers: they never charge simulated time or mutate state, so
    #: runs with and without them externalize identical bytes.
    sanitize: bool = False

    def scaled(self, factor: float) -> "BeTreeConfig":
        """Geometry scaled by ``factor`` (for reduced-size benchmarks).

        Basement nodes are floored at 64 KiB so that the aligned page
        layout (§6) keeps its real-world ~3-10% padding overhead — a
        basement holding a single 4 KiB page would double in size and
        distort every I/O measurement.
        """
        node_size = max(128 * KIB, int(self.node_size * factor))
        basement = int(self.basement_size * factor)
        basement = max(64 * KIB, min(basement, node_size // 4))
        return replace(
            self,
            node_size=node_size,
            basement_size=basement,
            buffer_size=max(48 * KIB, int(self.buffer_size * factor)),
            cache_bytes=max(512 * KIB, int(self.cache_bytes * factor)),
        )
