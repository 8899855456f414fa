"""The session lifecycle: build / step / observe / finalize one run.

This module decomposes the historical monolithic
``WorkloadManager.run()`` into an explicit :class:`SimulationSession`:

* :meth:`SimulationSession.build` wires the fabric, the MPI runtime and
  storage, places the t=0 jobs (through the session's control policy)
  and arms the engine;
* :meth:`SimulationSession.step` advances the committed simulation to
  an absolute time -- repeatedly, in windows, with the same event
  sequence as one monolithic run (the engines' stepping-parity
  contract);
* :meth:`SimulationSession.observe` assembles a versioned
  :class:`Observation` snapshot from the run's telemetry session and
  live fabric state (clock, link loads, per-router queue depths, job
  lifecycle);
* :meth:`SimulationSession.finalize` publishes the end-of-run metrics
  and reduces the :class:`~repro.union.manager.RunOutcome`.

Decision points -- admission, placement of a pending arrival, per-job
routing selection -- are hooks on the session's
:class:`~repro.union.policy.ControlPolicy` (resolved through the
``policy`` registry family).  With the default scripted policy the
session is bit-identical to the pre-session run path; a controller
(e.g. the ``load-aware`` policy, or a ``repro.env`` agent) reads
``observe()`` between steps and intervenes at the hooks.

``WorkloadManager.run()`` is now a thin convenience over this class;
managers are single-use (one session per manager) -- build a fresh
manager or call ``manager.reset()`` to run again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.mpi.engine import SimMPI
from repro.network.fabric import NetworkFabric
from repro.pdes import collector
from repro.placement.policies import PlacementError
from repro.telemetry.schema import OBSERVATION_SCHEMA
from repro.union.policy import (
    AdmissionRequest,
    ControlPolicy,
    PlacementRequest,
    RoutingRequest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.engine import JobResult, JobSpec
    from repro.union.manager import Job, RunOutcome, WorkloadManager


def _placement_name(placement) -> str:
    """Name of a placement given as a string or a registry spec object."""
    return placement if isinstance(placement, str) else placement.name


@dataclass
class Observation:
    """One versioned snapshot of a running session's observable state.

    Assembled by :meth:`SimulationSession.observe` from the run's
    telemetry store and live fabric state; plain data, safe to keep
    after the session advances (lists are copies).  ``to_vector()``
    flattens the numeric fields for box-style observation spaces.
    """

    #: Snapshot format tag (:data:`repro.telemetry.OBSERVATION_SCHEMA`).
    schema: str
    #: Monotonic snapshot counter within the session (1-based).
    version: int
    #: Current simulated time in seconds.
    clock: float
    #: Events committed by the engine so far.
    events: int
    #: Jobs on the manager's roster (measured apps + injectors).
    jobs_total: int
    #: Jobs whose ranks have launched.
    jobs_started: int
    #: Jobs whose last rank finished.
    jobs_finished: int
    #: Names of jobs not yet launched (future arrivals / deferred).
    pending: tuple[str, ...]
    #: ``{job name: "pending" | "skipped" | "running" | "finished"}``.
    job_states: dict[str, str]
    #: Compute nodes currently unoccupied.
    free_nodes: int
    #: Messages injected but not yet fully delivered.
    in_flight: int
    #: Instruments registered in the run's telemetry session.
    n_instruments: int
    #: Link-load roll-up (``global_total_bytes``, ``local_total_bytes``,
    #: ``global_per_link_bytes``, ``local_per_link_bytes``,
    #: ``global_fraction`` -- the Table VI row, live).
    link_summary: dict[str, float]
    #: Cumulative bytes on each router's outgoing links (terminal
    #: deliveries included), indexed by router id.
    router_load: list[float]
    #: Current peak per-port FIFO depth of each router, indexed by
    #: router id (live probe, not a windowed series).
    router_queue: list[int]

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (tuples become lists)."""
        return {
            "schema": self.schema,
            "version": self.version,
            "clock": self.clock,
            "events": self.events,
            "jobs_total": self.jobs_total,
            "jobs_started": self.jobs_started,
            "jobs_finished": self.jobs_finished,
            "pending": list(self.pending),
            "job_states": dict(self.job_states),
            "free_nodes": self.free_nodes,
            "in_flight": self.in_flight,
            "n_instruments": self.n_instruments,
            "link_summary": dict(self.link_summary),
            "router_load": list(self.router_load),
            "router_queue": list(self.router_queue),
        }

    def to_vector(self) -> list[float]:
        """Flat numeric feature vector: the scalar fields in declaration
        order, then per-router load and queue depth.  Length is fixed
        for a fixed topology, matching the env's observation space."""
        return [
            self.clock,
            float(self.events),
            float(self.jobs_total),
            float(self.jobs_started),
            float(self.jobs_finished),
            float(len(self.pending)),
            float(self.free_nodes),
            float(self.in_flight),
            *[float(x) for x in self.router_load],
            *[float(x) for x in self.router_queue],
        ]

    def __repr__(self) -> str:
        return (
            f"<Observation v{self.version} t={self.clock:g}s: "
            f"{self.jobs_started}/{self.jobs_total} jobs started, "
            f"{self.jobs_finished} finished, "
            f"{self.n_instruments} instruments>"
        )


class SimulationSession:
    """One run of a :class:`~repro.union.manager.WorkloadManager`,
    exposed as an explicit build/step/observe/finalize lifecycle.

    Obtained via :meth:`WorkloadManager.session`; sessions (like the
    engines underneath them) are single-use.  ``policy`` is a control
    policy resolved through :mod:`repro.registry.policies` (name, table,
    ready instance, or ``None`` for the scripted baseline).
    """

    def __init__(self, manager: "WorkloadManager",
                 policy: str | dict | ControlPolicy | None = None) -> None:
        from repro.registry import build_policy

        self.manager = manager
        self.policy = build_policy(policy)
        self.fabric: NetworkFabric | None = None
        self.mpi: SimMPI | None = None
        self.storage = None
        self.fault_plane = None
        self._built = False
        self._outcome: "RunOutcome | None" = None
        self._obs_version = 0
        self._free: set[int] = set()

    # -- lifecycle ---------------------------------------------------------
    def build(self) -> "SimulationSession":
        """Wire the fabric/runtime, place t=0 jobs, arm the engine.

        After this the session can :meth:`step` and :meth:`observe`.
        Calling it twice raises: the engine underneath holds per-run LP
        state (build a fresh manager, or ``manager.reset()``).
        """
        with collector.building():
            return self._build()

    def _build(self) -> "SimulationSession":
        if self._built:
            raise RuntimeError(
                "this session is already built (sessions are single-use, "
                "like the engine state they own); create a fresh manager "
                "or call manager.reset() to run again"
            )
        mgr = self.manager
        if not mgr.jobs:
            raise RuntimeError("no jobs to run")
        mgr._validate_components()
        self.policy.bind(self)
        self.fabric = NetworkFabric(
            mgr.topo,
            mgr.config,
            routing=mgr._routing_component(mgr.routing),
            engine=mgr._engine_component(),
            counter_window=mgr.counter_window,
            telemetry=mgr.telemetry,
        )
        self.mpi = SimMPI(self.fabric)
        if mgr.storage_nodes:
            from repro.storage.system import StorageSystem

            self.storage = StorageSystem(self.mpi, mgr.storage_nodes,
                                         mgr.storage_config)
        # Mirror the live stack onto the manager: RunOutcome and every
        # historical caller read ``mgr.fabric`` / ``mgr.mpi``.
        mgr.fabric = self.fabric
        mgr.mpi = self.mpi
        mgr.storage = self.storage
        n = len(mgr.jobs)
        self._job_nodes: list[list[int] | None] = [None] * n
        self._job_footprint: list[set[int] | None] = [None] * n
        self._job_app: list[int | None] = [None] * n
        self._job_skip: list[str | None] = [None] * n
        self._nodes_by_app: dict[int, set[int]] = {}
        self._free = set(range(mgr.topo.n_nodes))
        if mgr.faults:
            from repro.faults import FaultPlane

            self.fault_plane = FaultPlane(mgr.faults, self.fabric,
                                          storage=self.storage, session=self)
            self.fault_plane.install()
        # A policy that may intervene in admission/placement needs the
        # per-job dynamic path even for all-t=0 workloads; the scripted
        # baseline keeps the historical static draw bit for bit.
        dynamic = any(j.arrival > 0 or j.placement is not None for j in mgr.jobs)
        if dynamic or not self.policy.scripted:
            self._setup_dynamic()
        else:
            self._setup_static()
        self.mpi.start()
        self._built = True
        return self

    @property
    def engine(self):
        """The run's PDES engine (after :meth:`build`)."""
        assert self.fabric is not None
        return self.fabric.engine

    def _require_built(self, what: str) -> None:
        if not self._built:
            raise RuntimeError(f"cannot {what} before build(): call "
                               "session.build() first")

    def step(self, until: float = float("inf")) -> float:
        """Advance the simulation to absolute time ``until``.

        Resumable: ``step(t1); step(horizon)`` commits the identical
        event sequence as one ``step(horizon)``.  Returns the reached
        simulated time.  Stepping a finalized session raises.
        """
        self._require_built("step")
        if self._outcome is not None:
            raise RuntimeError("session is finalized; create a fresh manager "
                               "or call manager.reset() to run again")
        assert self.mpi is not None
        with collector.running():
            return self.mpi.step(until=until)

    def observe(self) -> Observation:
        """A fresh versioned :class:`Observation` of the current state.

        Legal as soon as the fabric exists -- policy hooks observe
        *during* ``build()`` when placing t=0 jobs (link loads are
        simply all zero then).
        """
        if self.fabric is None:
            raise RuntimeError("cannot observe before build(): call "
                               "session.build() first")
        assert self.mpi is not None
        # Policy hooks observe from inside delivery callbacks, where a
        # resident fabric's mirrors lag until synced.
        self.fabric.sync()
        mgr = self.manager
        topo = mgr.topo
        self._obs_version += 1
        link_bytes = self.fabric.link_loads.bytes_per_link
        router_load: list[float] = []
        router_queue: list[int] = []
        for r, ports in enumerate(topo.router_ports):
            router_load.append(float(sum(int(link_bytes[p.link_id]) for p in ports)))
            lp = self.fabric.routers[r]
            router_queue.append(max((lp.queue_depth(p.pid) for p in ports),
                                    default=0))
        states: dict[str, str] = {}
        pending: list[str] = []
        started = finished = 0
        for i, job in enumerate(mgr.jobs):
            app_id = self._job_app[i]
            if app_id is None:
                if self._job_skip[i]:
                    states[job.name] = "skipped"
                else:
                    states[job.name] = "pending"
                    pending.append(job.name)
                continue
            started += 1
            if self.mpi.jobs[app_id].finished:
                finished += 1
                states[job.name] = "finished"
            else:
                states[job.name] = "running"
        return Observation(
            schema=OBSERVATION_SCHEMA,
            version=self._obs_version,
            clock=self.engine.now,
            events=self.engine.events_processed,
            jobs_total=len(mgr.jobs),
            jobs_started=started,
            jobs_finished=finished,
            pending=tuple(pending),
            job_states=states,
            free_nodes=len(self._free),
            in_flight=self.fabric.in_flight(),
            n_instruments=len(mgr.telemetry.instruments()),
            link_summary=self.fabric.link_loads.summary(),
            router_load=router_load,
            router_queue=router_queue,
        )

    def finalize(self) -> "RunOutcome":
        """Publish end-of-run metrics and reduce the :class:`RunOutcome`.

        Idempotent: repeated calls return the same outcome object.
        """
        from repro.union.manager import AppMetrics, RunOutcome

        self._require_built("finalize")
        if self._outcome is not None:
            return self._outcome
        assert self.mpi is not None
        mgr = self.manager
        end = self.engine.now
        self.mpi.publish_job_metrics()
        apps = []
        not_started: list[tuple[str, str]] = []
        results = self.mpi.results()
        topo = mgr.topo
        # Group-less fabrics (torus, fat-tree, slim fly) report an
        # empty group set rather than faking a hierarchy.
        group_of = getattr(topo, "group_of", None)
        for i, job in enumerate(mgr.jobs):
            app_id = self._job_app[i]
            if app_id is None:
                reason = self._job_skip[i] or (
                    f"arrival t={job.arrival:g}s is beyond the end of the "
                    f"simulation (t={end:g}s)"
                )
                not_started.append((job.name, reason))
                mgr._publish_job_placement(job, started=False)
                continue
            nodes = self._job_nodes[i]
            assert nodes is not None
            routers = {topo.router_of_node(n) for n in nodes}
            groups = {group_of(r) for r in routers} if group_of else set()
            apps.append(AppMetrics(
                job.name, app_id, results[app_id], nodes, routers, groups,
                arrival=job.arrival, background=job.background,
            ))
            mgr._publish_job_placement(job, started=True, nodes=nodes,
                                       routers=routers, groups=groups)
        self._outcome = RunOutcome(mgr, apps, end, not_started)
        return self._outcome

    def run(self, until: float = float("inf")) -> "RunOutcome":
        """Convenience: build (if needed), step to ``until``, finalize."""
        if not self._built:
            self.build()
        self.step(until)
        return self.finalize()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("finalized" if self._outcome is not None
                 else "built" if self._built else "new")
        return (f"<SimulationSession {state}, policy {self.policy.name!r}, "
                f"{len(self.manager.jobs)} jobs>")

    # -- job placement (scripted draws + policy hooks) ---------------------
    def _job_spec(self, i: int, job: "Job") -> "JobSpec":
        from repro.mpi.engine import JobSpec

        mgr = self.manager
        program = (mgr._skeleton_program(job) if job.skeleton is not None
                   else job.program)
        nodes = self._job_nodes[i]
        assert nodes is not None
        return JobSpec(job.name, job.nranks, program, nodes, dict(job.params))

    def _record_launch(self, i: int, job: "Job", app_id: int) -> None:
        self._job_app[i] = app_id
        # The footprint (whole routers/groups under RR/RG) is what the
        # job occupies and what returns to the pool when it finishes.
        self._nodes_by_app[app_id] = (
            self._job_footprint[i] or set(self._job_nodes[i] or ())
        )
        routing = job.routing
        override = self.policy.route(RoutingRequest(
            job.name, app_id, routing if isinstance(routing, str) else None))
        if override is not None:
            routing = override
        if routing is not None:
            assert self.fabric is not None
            self.fabric.set_app_routing(app_id, self.manager._routing_component(routing))

    def _setup_static(self) -> None:
        """Historical path: one placement draw covering every job."""
        mgr = self.manager
        fn = mgr._placement_fn(_placement_name(mgr.placement).lower())
        placements = fn(mgr.topo, [j.nranks for j in mgr.jobs], mgr.seed)
        for i, (job, nodes) in enumerate(zip(mgr.jobs, placements)):
            self._job_nodes[i] = nodes
            self._free.difference_update(nodes)
            app_id = self.mpi.add_job(self._job_spec(i, job))
            self._record_launch(i, job, app_id)

    def _setup_dynamic(self) -> None:
        """Arrival-aware path: place per job against the free-node set,
        consulting the policy's admission/placement hooks."""
        mgr = self.manager
        self.mpi.job_end_callback = self._on_job_end
        for i, job in enumerate(mgr.jobs):
            if job.arrival <= 0:
                if not self._admitted(i, job):
                    continue
                self._place_one(i, job)  # t=0 jobs must fit: raises
                app_id = self.mpi.add_job(self._job_spec(i, job))
                self._record_launch(i, job, app_id)
            else:
                self.mpi.submit_job(
                    self._arrival_factory(i, job),
                    arrival=job.arrival,
                    on_launch=lambda app_id, i=i, job=job: self._record_launch(i, job, app_id),
                )

    def _admitted(self, i: int, job: "Job") -> bool:
        now = self.engine.now
        ok = self.policy.admit(AdmissionRequest(
            job.name, job.nranks, job.arrival, now, frozenset(self._free)))
        if not ok:
            self._job_skip[i] = (
                f"deferred by policy {self.policy.name!r} at t={now:g}s"
            )
        return ok

    def _place_one(self, i: int, job: "Job") -> list[int]:
        mgr = self.manager
        policy_name = _placement_name(job.placement or mgr.placement).lower()
        chosen = self.policy.place(PlacementRequest(
            job.name, job.nranks, policy_name, job.arrival, self.engine.now,
            frozenset(self._free)))
        if chosen is not None:
            nodes = self._check_policy_nodes(job, chosen)
            # A controller picked exact nodes: reserve those and only
            # those (no RR/RG whole-router expansion -- the controller
            # owns the decision).
            footprint = set(nodes)
        else:
            nodes = mgr._placement_fn(policy_name)(
                mgr.topo, [job.nranks], mgr.seed + i, allowed_nodes=self._free
            )[0]
            # Under RR/RG the job owns its whole routers/groups: reserve
            # the unused tail nodes too, or a later arrival would be
            # co-located inside the "isolated" router/group.
            footprint = set(nodes)
            if policy_name == "rr":
                for node in nodes:
                    footprint.update(
                        mgr.topo.nodes_of_router(mgr.topo.router_of_node(node)))
            elif policy_name == "rg":
                for node in nodes:
                    group = mgr.topo.group_of(mgr.topo.router_of_node(node))
                    footprint.update(mgr.topo.nodes_of_group(group))
        self._free.difference_update(footprint)
        self._job_footprint[i] = footprint
        self._job_nodes[i] = nodes
        return nodes

    def _check_policy_nodes(self, job: "Job", nodes: list[int]) -> list[int]:
        nodes = [int(n) for n in nodes]
        if len(nodes) != job.nranks:
            raise PlacementError(
                f"policy {self.policy.name!r} placed job {job.name!r} on "
                f"{len(nodes)} nodes for {job.nranks} ranks"
            )
        if len(set(nodes)) != len(nodes):
            raise PlacementError(
                f"policy {self.policy.name!r} placed job {job.name!r} on "
                f"duplicate nodes"
            )
        busy = [n for n in nodes if n not in self._free]
        if busy:
            raise PlacementError(
                f"policy {self.policy.name!r} placed job {job.name!r} on "
                f"occupied/unknown node(s) {sorted(busy)[:4]}"
            )
        return nodes

    def _arrival_factory(self, i: int, job: "Job"):
        def factory() -> "JobSpec | None":
            if not self._admitted(i, job):
                return None
            try:
                self._place_one(i, job)
            except PlacementError as exc:
                reason = f"placement failed at arrival t={job.arrival:g}s: {exc}"
                if self.fault_plane is not None:
                    active = self.fault_plane.describe_active()
                    if active:
                        reason += f" (active fault(s): {active})"
                self._job_skip[i] = reason
                return None
            return self._job_spec(i, job)

        return factory

    def _on_job_end(self, result: "JobResult") -> None:
        """Return a finished job's nodes to the free pool.

        Under an active ``router-down`` fault, nodes attached to the
        failed router stay masked (the fault plane captures them and
        releases them at its ``fault_off``)."""
        freed = self._nodes_by_app.get(result.app_id, ())
        if self.fault_plane is not None:
            freed = self.fault_plane.absorb_freed(freed)
        self._free.update(freed)

    # -- fault-plane hooks (placement masking under router-down) -----------
    def fault_mask_nodes(self, nodes: set[int]) -> set[int]:
        """Withhold ``nodes`` from placement; returns the ones actually
        taken (nodes occupied by running jobs are untouched -- their
        jobs run to completion; :meth:`_on_job_end` re-masks them)."""
        taken = nodes & self._free
        self._free -= taken
        return taken

    def fault_unmask_nodes(self, nodes: set[int]) -> None:
        """Return previously masked nodes to the free pool."""
        self._free |= nodes
