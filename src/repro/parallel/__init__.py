"""``repro.parallel``: partitioned conservative execution for the full
network/MPI stack.

The source paper runs its hybrid-workload simulations on CODES/ROSS in
conservative (YAWNS) mode, where the minimum link latency provides the
lookahead.  This package makes that execution model drive the
production stack: it partitions a fabric's LPs topology-aware (whole
dragonfly groups / fat-tree pods / torus slabs per partition, terminals
and MPI driver LPs co-located with their routers' partitions), derives
the lookahead from the minimum cross-partition link latency, and wires
the result into :class:`~repro.pdes.conservative.ConservativeEngine`.

Surfaces: the ``engine`` component family in :mod:`repro.registry`
(scenario ``[engine]`` tables, ``--engine``/``--partitions`` CLI
flags), :class:`~repro.union.manager.WorkloadManager`'s ``engine``
parameter, and the ``pdes.conservative.*`` telemetry gauges.  The
execution model and the lookahead contract are documented in
``docs/engines.md``.

* :mod:`repro.parallel.partition` -- topology-aware partition plans
* :mod:`repro.parallel.runtime`   -- engine factory + lookahead rules
* :mod:`repro.parallel.mp`        -- true multi-process execution
"""

from repro.parallel.partition import (
    PartitionError,
    PartitionPlan,
    min_cross_partition_latency,
    plan_partitions,
)
from repro.parallel.runtime import conservative_engine, resolve_lookahead

#: repro.parallel.mp symbols resolved lazily: the fabric imports this
#: package on its hot construction path, and the mp machinery
#: (multiprocessing, merge plumbing) is only needed when an
#: mp-conservative engine is actually requested.
_MP_EXPORTS = frozenset(
    {"MpConservativeEngine", "WorkerFailure"}
)


def __getattr__(name: str):
    if name in _MP_EXPORTS:
        import repro.parallel.mp as _mp

        return getattr(_mp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MpConservativeEngine",
    "PartitionError",
    "PartitionPlan",
    "WorkerFailure",
    "conservative_engine",
    "min_cross_partition_latency",
    "plan_partitions",
    "resolve_lookahead",
]
