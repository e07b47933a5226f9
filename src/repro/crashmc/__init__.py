"""repro.crashmc — systematic crash-state exploration.

The crash-consistency claims in the paper are universally quantified:
*any* prefix of acknowledged operations must survive *any* power cut.
The unit tests spot-check a handful of hand-picked crash states; this
package checks the claim the way CrashMonkey/B3 (OSDI '18) does — by
enumerating the reachable crash states of a volatile write cache and
re-mounting the file system from every one of them.

Pieces:

* :mod:`repro.crashmc.plan` — :class:`CrashPlan`, one post-crash
  device state (epoch + persisted subset + tear + media faults);
* :mod:`repro.crashmc.schedule` — bounded B3-style plan enumeration
  (exhaustive subsets up to k records, seeded sampling beyond);
* :mod:`repro.crashmc.oracle` — the logical contract: synced data
  must read back, unsynced ops only as an atomic prefix (of the one
  log, on a multi-volume stack too);
* :mod:`repro.crashmc.workload` — deterministic KV renditions of the
  paper's tokubench/mailserver shapes, with explicit WAL pushes to
  populate the at-risk epoch;
* :mod:`repro.crashmc.explore` — :class:`CrashExplorer`: budget-split
  crash points, fsck + re-mount + oracle per case, ``crashmc.*``
  metrics; the one stack class holds a real ``BetrFS v0.6`` mount,
  carved per workload from ``CARVES`` (``xshard_rename`` runs on a
  two-volume :class:`~repro.shard.mount.ShardedBetrFS`);
* :mod:`repro.crashmc.shrink` — 1-minimal reduction of failing plans
  and JSON repro files (``python -m repro.crashmc.shrink repro.json``
  replays one; the package does not import it, so ``-m`` runs it
  fresh).

Entry point: ``python -m repro.harness torture --seed N --budget M``.
"""

from repro.crashmc.explore import CrashExplorer, TortureSummary, run_case
from repro.crashmc.oracle import Op, Oracle
from repro.crashmc.plan import CrashPlan
from repro.crashmc.schedule import enumerate_plans, media_plans
from repro.crashmc.workload import WORKLOADS

__all__ = [
    "CrashExplorer",
    "CrashPlan",
    "Op",
    "Oracle",
    "TortureSummary",
    "WORKLOADS",
    "enumerate_plans",
    "media_plans",
    "run_case",
]
