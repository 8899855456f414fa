"""``repro.parallel.mp``: true multi-process partitioned execution.

The rest of :mod:`repro.parallel` *emulates* a partitioned YAWNS run
inside one process; this package actually distributes it.  Each LP
partition of a :func:`~repro.parallel.partition.plan_partitions` plan
runs in its own worker process with its own event heap; cross-partition
events are exchanged only at window boundaries, which the YAWNS
lookahead contract makes safe (anything sent during a window lands at
or after the window boundary).

Execution is *replicated-model SPMD*: every worker rebuilds the full
network/MPI stack from one pickled :class:`~repro.parallel.mp.recipe.
ModelRecipe` and then commits only its own partition's events, so no
live LP state ever crosses a process boundary -- only events, message
open records and end-of-step state snapshots do.  Sequence numbers are
origin-scoped (:meth:`repro.pdes.engine.Engine.schedule_fast`), so the
committed event order, the metrics and the scenario JSON are
bit-identical to a sequential run of the same model.

Modules:

* :mod:`repro.parallel.mp.recipe`   -- model recipes + eligibility
* :mod:`repro.parallel.mp.worker`   -- worker engine and protocol loop
* :mod:`repro.parallel.mp.channels` -- mp / inline transports
* :mod:`repro.parallel.mp.merge`    -- state snapshots and master merge
* :mod:`repro.parallel.mp.engine`   -- the ``mp-conservative`` master

The execution model, the wire protocol and the fallback rules are
documented in ``docs/engines.md``.
"""

from repro.parallel.mp.engine import MpConservativeEngine, mp_conservative_engine
from repro.parallel.mp.channels import MP_BACKENDS, WorkerFailure

__all__ = [
    "MP_BACKENDS",
    "MpConservativeEngine",
    "WorkerFailure",
    "mp_conservative_engine",
]
