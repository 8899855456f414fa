"""Model recipes: how a worker process rebuilds the simulation.

``repro.parallel.mp`` runs *replicated-model SPMD*: instead of
serializing live LP state (routers hold engine references, ranks hold
running generators -- none of it pickles, none of it should), the master
ships every worker a small declarative :class:`ModelRecipe` and each
worker rebuilds the full ``WorkloadManager`` stack from it.  Replicated
construction plus origin-scoped sequence numbers keeps all processes'
event-id spaces aligned without any cross-process coordination.

Not every model is expressible as a recipe.  :func:`extract_recipe`
checks a built :class:`~repro.union.session.SimulationSession` against
the eligibility rules below and returns either a pickled recipe or the
reason distribution is impossible; the ``mp-conservative`` engine turns
that reason into a clean single-process fallback (see
``docs/engines.md``):

* the session policy must be scripted (no step-time intervention);
* every job must be static: arrival 0, no per-job placement override,
  routing given as a table name (or inherited);
* no fault plan and no storage subsystem (their schedules and hooks
  hold closures over live state);
* manager routing/placement must be named strategies, not instances;
* the assembled recipe must actually pickle (translator-produced
  skeleton programs may close over arbitrary state).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.union.session import SimulationSession


@dataclass(frozen=True)
class ModelRecipe:
    """Everything a worker needs to rebuild the model from scratch.

    ``topo`` is shipped as the constructed topology object (topologies
    are plain data and pickle cleanly); jobs are the manager's
    :class:`~repro.union.manager.Job` specs, untouched.  ``lookahead``
    is the master's *resolved* value so workers never re-derive it.
    """

    topo: Any
    config: Any
    routing: str
    placement: str
    seed: int
    counter_window: float
    jobs: tuple
    partitions: int
    lookahead: float
    telemetry_enable: tuple
    telemetry_disable: tuple


def extract_recipe(session: "SimulationSession") -> tuple[bytes | None, str | None]:
    """Distill a built session into a pickled recipe, or explain why not.

    Returns ``(blob, None)`` when the model is distributable and
    ``(None, reason)`` otherwise.  The reason strings surface verbatim
    as ``engine.fallback_reason``, so they are written for users.
    """
    mgr = session.manager
    policy = session.policy
    if not policy.scripted or policy.name != "scripted":
        return None, (
            f"session policy {policy.name!r} may intervene at run time; "
            "only the scripted baseline distributes"
        )
    if mgr.faults:
        return None, "fault plans replay live engine state and cannot be distributed"
    if mgr.storage_nodes:
        return None, "the storage subsystem uses message hooks and cannot be distributed"
    if not isinstance(mgr.routing, str):
        return None, f"manager routing must be a named strategy, got {type(mgr.routing).__name__}"
    if not isinstance(mgr.placement, str):
        return None, f"manager placement must be a named strategy, got {type(mgr.placement).__name__}"
    for job in mgr.jobs:
        if job.arrival > 0:
            return None, f"job {job.name!r} arrives at t={job.arrival:g}; only static (t=0) jobs distribute"
        if job.placement is not None:
            return None, f"job {job.name!r} carries a per-job placement override"
        if job.routing is not None and not isinstance(job.routing, str):
            return None, f"job {job.name!r} routing must be a table name, got {type(job.routing).__name__}"
    engine = session.engine
    recipe = ModelRecipe(
        topo=mgr.topo,
        config=mgr.config,
        routing=mgr.routing,
        placement=mgr.placement,
        seed=mgr.seed,
        counter_window=mgr.counter_window,
        jobs=tuple(mgr.jobs),
        partitions=engine.n_partitions,
        lookahead=engine.lookahead,
        telemetry_enable=tuple(mgr.telemetry._enable),
        telemetry_disable=tuple(mgr.telemetry._disable),
    )
    try:
        blob = pickle.dumps(recipe, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        return None, f"model does not pickle: {exc}"
    return blob, None


def build_worker_model(recipe: ModelRecipe, partition: int):
    """Rebuild the full simulation stack for one partition.

    Runs inside the worker process (or inline, for the ``inline``
    backend).  The resulting session drives a
    :class:`~repro.parallel.mp.worker.WorkerEngine` whose heap holds the
    replicated control events plus everything destined for ``partition``.
    """
    from repro.parallel.mp.worker import WorkerEngine
    from repro.parallel.partition import plan_partitions
    from repro.telemetry.session import Telemetry
    from repro.union.manager import WorkloadManager

    plan = plan_partitions(recipe.topo, recipe.partitions)
    engine = WorkerEngine(
        recipe.lookahead,
        n_partitions=recipe.partitions,
        partition_fn=plan,
        partition=partition,
    )
    engine.plan = plan
    telemetry = Telemetry(
        enable=recipe.telemetry_enable, disable=recipe.telemetry_disable
    )
    mgr = WorkloadManager(
        recipe.topo,
        config=recipe.config,
        routing=recipe.routing,
        placement=recipe.placement,
        seed=recipe.seed,
        counter_window=recipe.counter_window,
        telemetry=telemetry,
        engine=engine,
    )
    for job in recipe.jobs:
        mgr.add_job(job)
    session = mgr.session()
    session.build()
    return session
