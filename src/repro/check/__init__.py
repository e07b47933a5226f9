"""Machine-checked guardrails for the simulation (`repro.check`).

Eight tools in three families, each defending a different class of
silent corruption:

* **Static, over the source tree** (``python -m repro.check
  {lint,arch,costflow,conc,durflow}``).  :mod:`~repro.check.lint` is
  the per-file simulation-purity lint (no wall clock or global RNG, no
  iteration-order dependence in serialization paths, ``bytes`` keys,
  no mutable defaults, no bare ``assert``, no raw device I/O outside
  the charging layers); a bare ``lint`` run also composes the four
  whole-program analyses: :mod:`~repro.check.arch` (layer manifest,
  import cycles), :mod:`~repro.check.costflow` (every byte moved is
  charged), :mod:`~repro.check.conc` (the scheduler's lock, yield,
  signal and purity discipline) and :mod:`~repro.check.durflow`
  (write-ahead, barrier order, durable recovery reads).  They state rules only: :mod:`~repro.check.flow` parses the
  tree once into the typed ``Program`` they share, walks function
  bodies, and owns how an analysis finishes (waivers via
  :mod:`~repro.check.waivers`, reports, graph files, the CLI shell).
* **At run time, as pure observers.**  :mod:`~repro.check.sanitize`
  (opt-in ``BeTreeConfig.sanitize``, zero-cost when off: tree, cost,
  allocator, FTL and cache invariants) and :mod:`~repro.check.order`
  (the (effect, barrier) recorder behind ``harness torture
  --verify-order-graph``, durflow's runtime backstop).
* **Offline, over a crash image.**  :mod:`~repro.check.fsck`
  (``python -m repro.harness fsck <image>``) walks superblock →
  checkpoint → nodes → WAL → FTL state.

All failures raise typed :class:`~repro.check.errors.CheckError`
subclasses (:mod:`~repro.check.errors`, a leaf the whole stack may
import) so they survive ``python -O``.
"""

from repro.check.errors import (
    AllocInvariantError,
    CacheInvariantError,
    CheckError,
    CostInvariantError,
    FsckError,
    InvariantError,
    TreeInvariantError,
    require,
)

# fsck / lint / sanitize are loaded lazily (PEP 562): core modules
# import ``repro.check.errors`` for :func:`require`, which executes this
# package __init__ — an eager ``from repro.check.fsck import ...`` here
# would re-enter those half-initialized core modules.
_LAZY = {
    "FsckReport": "repro.check.fsck",
    "fsck_device": "repro.check.fsck",
    "fsck_mount": "repro.check.fsck",
    "load_image": "repro.check.fsck",
    "save_image": "repro.check.fsck",
    "Violation": "repro.check.lint",
    "lint_paths": "repro.check.lint",
    "lint_repo": "repro.check.lint",
    "SanitizerSuite": "repro.check.sanitize",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "AllocInvariantError",
    "CacheInvariantError",
    "CheckError",
    "CostInvariantError",
    "FsckError",
    "FsckReport",
    "InvariantError",
    "SanitizerSuite",
    "TreeInvariantError",
    "Violation",
    "fsck_device",
    "fsck_mount",
    "lint_paths",
    "lint_repo",
    "load_image",
    "require",
    "save_image",
]
