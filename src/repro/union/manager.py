"""WorkloadManager: co-schedule skeleton and SWM jobs on one network.

The top of the Union stack: give it a topology, a routing algorithm, a
placement policy and a list of jobs (Union skeletons from the registry
or SWM-style Python programs), and it wires up the fabric, maps ranks to
nodes, runs the co-scheduled simulation and returns per-application
metrics plus the fabric's measurement instruments -- everything the
paper's Figures 7-9 and Tables IV-VI consume.

Jobs need not all start at t=0: a :class:`Job` may carry an ``arrival``
time (it is then placed at that simulated instant against the residual
free-node set, reusing nodes of finished jobs), a per-job ``placement``
policy override, and a ``background`` flag marking traffic injectors.
Declarative access to all of this lives in :mod:`repro.scenario`.

Execution is delegated to the session lifecycle
(:class:`~repro.union.session.SimulationSession`): :meth:`WorkloadManager.run`
is ``session().build() -> step(horizon) -> finalize()`` in one call,
while :meth:`WorkloadManager.session` hands out the stepwise form --
advance in windows, ``observe()`` the live state, let a control policy
intervene at the placement/admission/routing decision points.  Managers
are **single-use** (the engine underneath holds per-run LP state): a
second ``run()``/``session()`` raises, and :meth:`reset` explicitly
clears the spent state for deliberate re-runs on a shared telemetry
session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.mpi.engine import JobResult, SimMPI, job_key
from repro.network.config import NetworkConfig
from repro.network.fabric import NetworkFabric
from repro.network.topology import Topology
from repro.pdes.engine import Engine
from repro.registry import (
    build_engine,
    check_placement,
    resolve_routing,
    spec_for_instance,
)
from repro.telemetry import Telemetry
from repro.union.event_generator import SimUnionAPI, SkeletonShared
from repro.union.registry import get_skeleton
from repro.union.session import SimulationSession
from repro.union.skeleton import Skeleton


def _placement_name(placement) -> str:
    """Name of a placement given as a string or a registry spec object."""
    return placement if isinstance(placement, str) else placement.name


@dataclass
class Job:
    """One application instance to co-schedule.

    Exactly one of ``skeleton``/``program`` is set: ``skeleton`` runs a
    Union-translated coNCePTuaL application, ``program`` a hand-written
    SWM-style generator ``program(ctx)``.  ``routing`` optionally
    overrides the fabric-wide routing policy for this job's traffic
    (the paper's per-job "routing police").

    ``arrival`` schedules the job's launch mid-simulation: its ranks are
    placed at that simulated time against the then-free node set (nodes
    of already-finished jobs are reused).  ``placement`` overrides the
    manager-wide policy for this one job.  ``background`` marks traffic
    injectors that load the fabric but are not themselves the measured
    applications (scenario reports separate the two).
    """

    name: str
    nranks: int
    skeleton: Skeleton | None = None
    program: Callable | None = None
    params: dict[str, Any] = field(default_factory=dict)
    routing: str | Callable | None = None  # name or routing factory
    arrival: float = 0.0
    placement: str | Any | None = None  # name or registry PlacementSpec
    background: bool = False

    def __post_init__(self) -> None:
        if (self.skeleton is None) == (self.program is None):
            raise ValueError(f"job {self.name!r}: set exactly one of skeleton/program")
        if self.nranks < 1:
            raise ValueError(f"job {self.name!r}: nranks must be >= 1")
        if self.arrival < 0:
            raise ValueError(f"job {self.name!r}: arrival must be >= 0, got {self.arrival}")


@dataclass
class AppMetrics:
    """Per-application results joined with its placement."""

    name: str
    app_id: int
    result: JobResult
    nodes: list[int]
    routers: set[int]
    groups: set[int]
    arrival: float = 0.0
    background: bool = False


class RunOutcome:
    """Everything measured in one co-scheduled simulation.

    ``not_started`` lists ``(job_name, reason)`` for jobs whose arrival
    never happened inside the horizon, whose placement did not fit the
    free-node set at arrival time, or whose launch the session's
    control policy deferred.
    """

    def __init__(
        self,
        manager: "WorkloadManager",
        apps: list[AppMetrics],
        end_time: float,
        not_started: list[tuple[str, str]] | None = None,
    ) -> None:
        self.manager = manager
        self.apps = apps
        self.end_time = end_time
        self.fabric = manager.fabric
        self.not_started = not_started or []

    def app(self, name: str) -> AppMetrics:
        for a in self.apps:
            if a.name == name:
                return a
        raise KeyError(f"no application named {name!r}; have {[a.name for a in self.apps]}")

    def router_traffic_series(self, serving: str, source: str, horizon: float | None = None):
        """Figure 8 series: bytes/window received by ``serving``'s routers
        from application ``source``."""
        srv = self.app(serving)
        src = self.app(source)
        h = horizon if horizon is not None else self.end_time
        return self.fabric.app_counter.series(srv.routers, src.app_id, h)

    def link_load_summary(self) -> dict[str, float]:
        """Table VI row."""
        return self.fabric.link_loads.summary()

    def __repr__(self) -> str:
        finished = sum(1 for a in self.apps if a.result.finished)
        out = (f"<RunOutcome t={self.end_time:g}s: {len(self.apps)} jobs "
               f"started, {finished} finished")
        if self.not_started:
            out += f", {len(self.not_started)} not started"
        return out + ">"


class WorkloadManager:
    """Build and run one hybrid-workload simulation.

    Parameters
    ----------
    topo:
        Network topology instance -- any registered fabric model
        (dragonfly 1D/2D, fat-tree, torus, slim fly) or a duck-typed
        custom topology.
    routing:
        A routing name resolved against the topology through
        :mod:`repro.registry` (``"min"``/``"adp"`` on dragonflies,
        ``"dmodk"`` on fat-trees, ``"dor"`` on tori, ...), or a resolved
        component: a ``factory(topo, config, probe, stream_id)``
        callable.  Individual jobs may override it via
        ``Job(routing=...)``.  A name that is not available on the
        topology fails fast with the registry's capability error.
    config:
        Link-level parameters (defaults to the paper's bandwidths).
    placement:
        A placement name (``"rn"``, ``"rr"`` or ``"rg"``) or a registry
        :class:`~repro.registry.PlacementSpec`; policies whose declared
        requirements (group structure, uniform node attachment) the
        topology cannot satisfy fail fast with a clear error.
    seed:
        Master seed for placement shuffles and routing tie-breaks.
    counter_window:
        Window of the per-app router counters (paper: 0.5 ms).
    storage_nodes:
        Compute nodes hosting storage servers; enables the DSL's I/O
        statements and program-level ``IORead``/``IOWrite`` ops
        (Section VII extension).  ``None`` means no storage.
    storage_config:
        :class:`~repro.storage.config.StorageConfig` device parameters.
    faults:
        Scheduled fabric/storage faults
        (:class:`~repro.scenario.spec.FaultEntry`-shaped entries); the
        session lowers them onto the engine control plane through a
        :class:`~repro.faults.FaultPlane` at build time.  ``None``/empty
        leaves the run fault-free and bit-identical to before.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` session every layer of
        this run records into (fabric instruments, per-job MPI metrics).
        A fresh all-defaults session is created when omitted.
    engine:
        The PDES engine executing the run: an engine name
        (``"sequential"``/``"conservative"``), a parameter table like a
        scenario's ``[engine]`` section (``{"type": "conservative",
        "partitions": 8}``), a ready :class:`~repro.pdes.engine.Engine`
        instance, or ``None`` for the default preset
        (:data:`~repro.registry.engines.DEFAULT_ENGINE`).  Names/tables
        resolve through :mod:`repro.registry` against this manager's
        topology and link config, fresh per :meth:`run` (engines hold
        per-run LP state); a ready instance is single-use for the same
        reason.
    """

    def __init__(
        self,
        topo: Topology,
        config: NetworkConfig | None = None,
        routing: str = "adp",
        placement: str = "rn",
        seed: int = 0,
        counter_window: float = 0.5e-3,
        storage_nodes: list[int] | None = None,
        storage_config=None,
        telemetry: Telemetry | None = None,
        engine: str | dict | Engine | None = None,
        faults: list | None = None,
    ) -> None:
        self.topo = topo
        self.config = config or NetworkConfig(seed=seed)
        self.routing = routing
        self.placement = placement
        self.engine = engine
        self.seed = seed
        self.counter_window = counter_window
        self.storage_nodes = list(storage_nodes) if storage_nodes else None
        self.storage_config = storage_config
        self.faults = list(faults) if faults else []
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.jobs: list[Job] = []
        self.fabric: NetworkFabric | None = None
        self.mpi: SimMPI | None = None
        self.storage = None
        self._session: SimulationSession | None = None

    # -- job assembly ------------------------------------------------------
    def add_job(self, job: Job) -> "WorkloadManager":
        self.jobs.append(job)
        return self

    def add_skeleton_job(
        self, name: str, nranks: int, params: dict[str, Any] | None = None, job_name: str | None = None
    ) -> "WorkloadManager":
        """Add a job running the registered Union skeleton ``name``."""
        skel = get_skeleton(name)
        return self.add_job(Job(job_name or name, nranks, skeleton=skel, params=params or {}))

    def add_program_job(
        self, name: str, nranks: int, program: Callable, params: dict[str, Any] | None = None
    ) -> "WorkloadManager":
        """Add an SWM-style Python generator job."""
        return self.add_job(Job(name, nranks, program=program, params=params or {}))

    # -- execution -------------------------------------------------------------
    def _skeleton_program(self, job: Job) -> Callable:
        skel = job.skeleton
        assert skel is not None
        resolved = skel.resolve_params(job.params)
        shared = SkeletonShared(job.nranks, self.seed, storage=self.storage)

        def program(ctx):
            api = SimUnionAPI(ctx, shared)
            yield from skel.main(api, resolved)

        return program

    def session(self, policy=None) -> SimulationSession:
        """Open this manager's (single) session lifecycle.

        ``policy`` resolves through the ``policy`` registry family (a
        name like ``"load-aware"``, a ``{"type": ...}`` table, a ready
        :class:`~repro.union.policy.ControlPolicy`, or ``None`` for the
        scripted baseline).  A manager runs exactly once -- the engine
        underneath holds per-run LP state -- so a second call raises;
        create a fresh manager or call :meth:`reset` to run again.
        """
        if self._session is not None:
            raise RuntimeError(
                "this WorkloadManager already has a session (managers are "
                "single-use: the engine underneath holds per-run LP state); "
                "create a fresh WorkloadManager or call reset() to run again"
            )
        self._session = SimulationSession(self, policy)
        return self._session

    def reset(self) -> "WorkloadManager":
        """Clear the spent run state so this manager can run again.

        The telemetry session, job roster and configuration survive --
        the next run's instruments supersede the finished run's on the
        shared session (``register(replace=True)``), which is the
        supported re-run idiom.  A manager built on a *ready*
        :class:`~repro.pdes.engine.Engine` instance cannot be reset
        (the instance holds spent LP state); pass an engine name/table
        instead, which rebuilds fresh per run.
        """
        if isinstance(self.engine, Engine):
            raise RuntimeError(
                "cannot reset(): this manager was built on a ready Engine "
                "instance, which holds spent per-run LP state; pass an "
                "engine name or table (rebuilt fresh per run) instead"
            )
        self._session = None
        self.fabric = None
        self.mpi = None
        self.storage = None
        return self

    def run(self, until: float = float("inf")) -> RunOutcome:
        """Place jobs, run the co-scheduled simulation, collect metrics.

        Jobs whose ``arrival`` is zero and that carry no per-job
        ``placement`` override are placed together up front (one draw of
        the manager-wide policy, the paper's static co-schedule).  As
        soon as any job has an arrival time or a placement override, the
        manager switches to *dynamic* mode: t=0 jobs are placed one at a
        time, arriving jobs are placed at their arrival instants against
        the residual free-node set, and nodes of finished jobs return to
        the pool.

        One-shot form of the session lifecycle: equivalent to
        ``session().build()``, ``step(until)``, ``finalize()``.
        """
        return self.session().run(until=until)

    def _publish_job_placement(
        self,
        job: Job,
        started: bool,
        nodes: list[int] | None = None,
        routers: set[int] | None = None,
        groups: set[int] | None = None,
    ) -> None:
        """Publish scheduler-side job metrics (``mpi.job.<name>.*``).

        Complements :meth:`SimMPI.publish_job_metrics` with what only
        the scheduler knows: whether the job started at all, its
        arrival time, its placement footprint, and whether it is a
        background injector.
        """
        t = self.telemetry
        base = job_key(job.name)
        values = (
            ("started", int(started), "", "1 when the job's ranks launched"),
            ("arrival", job.arrival, "seconds", "requested arrival time"),
            ("background", int(job.background), "",
             "1 for background-traffic injectors"),
            ("n_nodes", len(nodes or ()), "nodes", "nodes the ranks occupy"),
            ("n_routers", len(routers or ()), "routers",
             "distinct routers under the placement"),
            ("n_groups", len(groups or ()), "groups",
             "distinct dragonfly groups under the placement"),
        )
        for metric, value, unit, doc in values:
            t.gauge(f"{base}.{metric}", unit=unit, doc=doc).set(value)

    def _engine_component(self) -> Engine | None:
        """Resolve the ``engine`` argument to what the fabric consumes.

        Names and tables build a *fresh* engine through the registry
        (validated against this manager's topology and link config, so a
        bad partition count fails with the registry's clear error before
        any LP exists); ready instances pass through; ``None`` lets the
        fabric build its default
        (:data:`~repro.registry.engines.DEFAULT_ENGINE`).
        """
        e = self.engine
        if e is None or isinstance(e, Engine):
            return e
        if isinstance(e, str):
            e = {"type": e}
        return build_engine(e, self.topo, self.config)

    def _routing_component(self, routing):
        """Resolve a routing argument to what the fabric consumes.

        Names are resolved against the topology through the registry
        (raising the capability-mismatch error when the policy cannot
        run there); factories/policies pass through untouched.  Raw
        duck-typed topologies keep the historical string path (the
        fabric's dragonfly ``make_routing``).
        """
        if not isinstance(routing, str) or spec_for_instance(self.topo) is None:
            return routing
        return resolve_routing(routing, self.topo)

    def _validate_components(self) -> None:
        """Fail fast on topology/routing/placement capability mismatches."""
        # Job names must stay distinct after metric-key folding, or two
        # jobs would publish into one mpi.job.<name>.* namespace and
        # silently overwrite each other's telemetry.
        seen: dict[str, str] = {}
        for job in self.jobs:
            key = job_key(job.name)
            other = seen.setdefault(key, job.name)
            if other != job.name:
                raise ValueError(
                    f"job names {other!r} and {job.name!r} collide on telemetry "
                    f"key {key!r} (dots/whitespace fold to underscores); rename one"
                )
        if isinstance(self.routing, str):
            self._routing_component(self.routing)
        for job in self.jobs:
            if isinstance(job.routing, str):
                self._routing_component(job.routing)
        dynamic = any(j.arrival > 0 or j.placement is not None for j in self.jobs)
        if dynamic:
            effective = {
                _placement_name(j.placement or self.placement) for j in self.jobs
            }
        else:
            effective = {_placement_name(self.placement)}
        for name in sorted(effective):
            check_placement(name, self.topo)

    def _placement_fn(self, name: str):
        """The policy callable behind a placement name.

        Resolution goes through the registry (so placements added via
        ``register_placement`` work here like everywhere else) and
        re-checks the topology's capabilities, which also produces the
        clear error for dynamic per-job overrides.
        """
        return check_placement(name, self.topo).func
