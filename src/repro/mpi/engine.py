"""SimMPI: drives rank generators over a NetworkFabric.

The execution model mirrors the paper's Argobots arrangement: every rank
is a lightweight coroutine; it runs until it issues a blocking operation,
then yields control to the simulator; when the simulated network
completes the operation, the simulator resumes the coroutine at the
completion timestamp.

Jobs either start at t=0 (:meth:`SimMPI.add_job`) or arrive
mid-simulation (:meth:`SimMPI.submit_job` with an ``arrival`` time and,
optionally, a deferred :class:`JobSpec` factory so rank placement can be
decided against whatever nodes are free at the arrival instant).

Metric definitions (Section IV-D):

* *message latency* -- time from send post to complete arrival at the
  destination terminal, recorded per delivered message on the receiving
  rank;
* *communication time* -- total wall-clock the rank spends blocked in
  MPI operations (waits, blocking send/recv, collectives), excluding
  Compute/Sleep delays.

Two executors run the ranks and commit the identical events: this
module's Python one, and the compiled kernel's *resident ranks*
(``_ranks.c``), which the engine takes over in :meth:`SimMPI.start`
through its ``adopt_ranks`` hook (``docs/engines.md``, "Resident
ranks").  With resident ranks the kernel owns matching, requests,
waits and compute wakeups, and Python is entered to resume a generator,
at rank start and finish, and for generic LPs; ``RankStats`` is synced
where Python can read it (:meth:`SimMPI.results`,
:meth:`SimMPI.publish_job_metrics`, before the ``job_end_callback`` and
before a rank's own resume, plus ``fabric.sync()``).

Per-job telemetry: the runtime shares the fabric's
:class:`~repro.telemetry.Telemetry` session and publishes each job's
metrics under ``mpi.job.<name>.*`` (see :func:`job_key`) -- lifecycle
gauges (``launched_at``/``finished_at``) recorded live, the full
per-job reduction (``avg_msg_latency``, ``max_comm_time``, ...)
published once at the end of :meth:`SimMPI.run`, and an opt-in
streaming message-latency histogram per job
(``mpi.job.<name>.msg_latency``; enable the family key
``mpi.job.msg_latency``) recorded on the delivery path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.mpi.collectives import IRECV, ISEND, WAIT
from repro.mpi.types import (
    ANY_SOURCE,
    ANY_TAG,
    Collective,
    Compute,
    Irecv,
    Isend,
    Message,
    MessageHook,
    Request,
    Sleep,
    Wait,
    Waitall,
)
from repro.network.fabric import NetworkFabric
from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP
from repro.telemetry import Telemetry, metric_segment

_BLOCKED = object()  # sentinel: rank suspended, stop advancing

#: Family key gating the per-job message-latency histograms (they are
#: opt-in: one bisect per delivered message is cheap but not free).
LATENCY_HISTOGRAM_FAMILY = "mpi.job.msg_latency"


def job_key(name: str, metric: str = "") -> str:
    """The ``mpi.job.<name>`` telemetry key prefix for a job.

    Dots and whitespace in the job name are folded to underscores
    (:func:`repro.telemetry.metric_segment`) so the name occupies
    exactly one key segment; the scheduler layers reject job rosters
    whose names collide after folding.
    """
    safe = metric_segment(name)
    return f"mpi.job.{safe}.{metric}" if metric else f"mpi.job.{safe}"


class RankStats:
    """Per-rank metrics accumulated during simulation."""

    __slots__ = (
        "comm_time",
        "compute_time",
        "latencies",
        "msgs_sent",
        "msgs_recvd",
        "bytes_sent",
        "counters",
        "log_rows",
        "finished_at",
    )

    def __init__(self) -> None:
        self.comm_time = 0.0
        self.compute_time = 0.0
        self.latencies: list[float] = []
        self.msgs_sent = 0
        self.msgs_recvd = 0
        self.bytes_sent = 0
        self.counters: dict[str, int] = {}
        self.log_rows: list[tuple[str, float]] = []
        self.finished_at = -1.0

    def count(self, fn: str, n: int = 1) -> None:
        self.counters[fn] = self.counters.get(fn, 0) + n

    def latency_summary(self) -> tuple[float, float, float]:
        """(min, mean, max) message latency over received messages."""
        if not self.latencies:
            return (0.0, 0.0, 0.0)
        return (
            min(self.latencies),
            sum(self.latencies) / len(self.latencies),
            max(self.latencies),
        )


class _RankState:
    __slots__ = (
        "job",
        "rank",
        "node",
        "driver_lp",
        "gen",
        "stats",
        "posted_recvs",
        "unexpected",
        "blocked",
        "pending_reqs",
        "wait_group",
        "block_start",
        "finished",
        "epoch_start",
        "coll",
        "coll_pc",
        "coll_reqs",
        "slot",
    )

    def __init__(self, job: "_Job", rank: int, node: int) -> None:
        self.job = job
        self.rank = rank
        self.node = node
        #: LP id of the driver serving this rank's partition (resolved
        #: at job start, so wakeups stay partition-local).
        self.driver_lp = -1
        self.gen: Generator | None = None
        self.stats = RankStats()
        self.posted_recvs: list[Request] = []
        self.unexpected: list[Message] = []
        self.blocked = False
        self.pending_reqs = 0
        self.wait_group: list[Request] | None = None
        self.block_start = 0.0
        self.finished = False
        self.epoch_start = 0.0  # set by "resets its counters"
        #: The Collective being executed, its next code word and the
        #: requests it issued so far (Python executor).
        self.coll: Collective | None = None
        self.coll_pc = 0
        self.coll_reqs: list[Request] = []
        #: Index of the rank in the kernel's resident ranks (-1: none).
        self.slot = -1


@dataclass
class JobSpec:
    """A job to co-schedule on the fabric.

    Attributes
    ----------
    name:
        Human-readable application name.
    nranks:
        Number of MPI ranks.
    program:
        ``program(ctx) -> generator`` producing the rank's operations.
    rank_to_node:
        Global node id for each rank (from a placement policy).
    params:
        Free-form parameters forwarded to the program via the ctx.
    """

    name: str
    nranks: int
    program: Callable[..., Generator]
    rank_to_node: list[int]
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError(f"job {self.name!r} needs at least 1 rank")
        if len(self.rank_to_node) != self.nranks:
            raise ValueError(
                f"job {self.name!r}: rank_to_node has {len(self.rank_to_node)} "
                f"entries for {self.nranks} ranks"
            )


class _Job:
    def __init__(self, spec: JobSpec, app_id: int) -> None:
        self.spec = spec
        self.app_id = app_id
        self.ranks: list[_RankState] = [
            _RankState(self, r, spec.rank_to_node[r]) for r in range(spec.nranks)
        ]
        self.done_ranks = 0

    @property
    def finished(self) -> bool:
        return self.done_ranks == len(self.ranks)


@dataclass
class JobResult:
    """Final metrics of one job."""

    name: str
    app_id: int
    nranks: int
    rank_stats: list[RankStats]
    finished: bool

    def max_comm_time(self) -> float:
        return max((s.comm_time for s in self.rank_stats), default=0.0)

    def mean_comm_time(self) -> float:
        if not self.rank_stats:
            return 0.0
        return sum(s.comm_time for s in self.rank_stats) / len(self.rank_stats)

    def all_latencies(self) -> list[float]:
        out: list[float] = []
        for s in self.rank_stats:
            out.extend(s.latencies)
        return out

    def max_latencies_per_rank(self) -> list[float]:
        return [max(s.latencies) for s in self.rank_stats if s.latencies]

    def avg_latency(self) -> float:
        lats = self.all_latencies()
        return sum(lats) / len(lats) if lats else 0.0

    def total_bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.rank_stats)

    def event_counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for s in self.rank_stats:
            for k, v in s.counters.items():
                total[k] = total.get(k, 0) + v
        return total


class _DriverLP(LP):
    """Driver LP for MPI engine events (start, launches, rank starts,
    compute wakeups).

    On an unpartitioned engine there is exactly one; a partitioned
    engine gets one driver *per partition*, each registered into its
    partition, so a rank's control events (its start, its compute
    wakeups) are handled in the same partition as the rank's terminal
    and never cross a partition boundary with sub-lookahead delay.
    """

    __slots__ = ("mpi",)

    def __init__(self, mpi: "SimMPI") -> None:
        super().__init__()
        self.mpi = mpi

    def handle(self, event: Event) -> None:
        if event.kind == "start":
            self.mpi._start_all()
        elif event.kind == "wake":
            self.mpi._on_wake(event.data)
        elif event.kind == "rank_start":
            self.mpi._begin_rank(event.data)
        elif event.kind == "launch":
            self.mpi._launch_submission(event.data)
        else:  # pragma: no cover - defensive
            raise ValueError(f"MPI driver got unknown event kind {event.kind!r}")


class SimMPI:
    """The simulated MPI runtime.

    Typical use::

        fabric = NetworkFabric(Dragonfly1D.mini(), routing="adp")
        mpi = SimMPI(fabric)
        mpi.add_job(JobSpec("pingpong", 2, pingpong_program, [0, 1]))
        mpi.run(until=0.01)
        results = mpi.results()
    """

    def __init__(self, fabric: NetworkFabric, telemetry: Telemetry | None = None) -> None:
        from repro.mpi.process import RankCtx  # local import to avoid a cycle

        self._ctx_cls = RankCtx
        self.fabric = fabric
        self.engine = fabric.engine
        #: Shared metric store; defaults to the fabric's session so
        #: network and MPI metrics land in one place.
        self.telemetry = telemetry if telemetry is not None else fabric.telemetry
        # Per-app latency-histogram record hooks, populated per job at
        # launch.  None when the family is off: the delivery hot path
        # then pays one is-None check, nothing more.
        self._lat_rec: dict[int, Callable[[float], None]] | None = (
            {} if self.telemetry.enabled(LATENCY_HISTOGRAM_FAMILY, default=False)
            else None
        )
        self.jobs: list[_Job] = []
        # One driver per engine partition (a single driver on the
        # sequential/optimistic engines), each pinned to its partition.
        # drivers[0] doubles as the control anchor for the start event
        # and pending-submission launches.
        self._drivers: list[_DriverLP] = []
        for p in range(self.engine.n_partitions):
            d = _DriverLP(self)
            self.engine.register(d, partition=p)
            self._drivers.append(d)
        self._driver = self._drivers[0]
        fabric.set_delivery_callback(self._on_delivery)
        fabric.set_injection_callback(self._on_injected)
        self._started = False
        #: Jobs submitted with a future arrival time:
        #: (arrival, spec-or-factory, on_launch-callback).
        self._pending: list[tuple[float, Any, Callable[[int], None] | None]] = []
        #: Invoked as ``cb(job_result)`` whenever the last rank of a job
        #: finishes (lets a scheduler return the job's nodes to a free pool).
        self.job_end_callback: Callable[[JobResult], None] | None = None
        #: Extension dispatch: op type -> handler(mpi, rank_state, op).
        #: A handler returns the value sent back into the generator, or
        #: blocks the rank itself and returns :data:`BLOCKED`.
        self.op_handlers: dict[type, Callable] = {}
        # Exact-type fast dispatch for the canonical ops, bound through
        # ``self`` so subclass overrides of _op_* are honored.
        self._op_dispatch: dict[type, Callable] = {
            Isend: self._op_isend,
            Irecv: self._op_irecv,
            Wait: self._op_wait,
            Waitall: self._op_waitall,
            Compute: self._op_compute,
            Sleep: self._op_compute,
            Collective: self._op_collective,
        }
        #: The kernel running the ranks when the engine adopted them in
        #: start() (``None``: this executor runs them).
        self._ranks = None

    def register_op_handler(self, op_type: type, handler: Callable) -> None:
        """Let a subsystem (e.g. storage) handle a new yieldable op type.

        Register before :meth:`start`, on every engine: that is where the
        engine decides whether it can run the ranks itself.
        """
        if self._started:
            raise RuntimeError("cannot register op handlers after the "
                               "simulation started")
        if op_type in self.op_handlers:
            raise ValueError(f"handler for {op_type.__name__} already registered")
        self.op_handlers[op_type] = handler

    # -- job management -------------------------------------------------------
    def _check_nodes(self, spec: JobSpec) -> None:
        n_nodes = self.fabric.topo.n_nodes
        for node in spec.rank_to_node:
            if not 0 <= node < n_nodes:
                raise ValueError(f"job {spec.name!r}: node {node} outside system of {n_nodes}")

    def add_job(self, spec: JobSpec) -> int:
        """Register a job that starts at t=0; returns its app id."""
        if self._started:
            raise RuntimeError("cannot add jobs after the simulation started")
        self._check_nodes(spec)
        app_id = len(self.jobs)
        self.jobs.append(_Job(spec, app_id))
        return app_id

    def submit_job(
        self,
        spec: JobSpec | Callable[[], JobSpec | None],
        arrival: float = 0.0,
        on_launch: Callable[[int], None] | None = None,
    ) -> None:
        """Submit a job that launches mid-simulation at ``arrival`` seconds.

        ``spec`` is either a ready :class:`JobSpec` or a zero-argument
        factory invoked *at the arrival time* -- the deferred form lets a
        scheduler place ranks against whatever nodes are free at that
        moment rather than at submission time.  A factory may return
        ``None`` to decline the launch (e.g. placement no longer fits).
        App ids are assigned in launch order, after every t=0 job;
        ``on_launch(app_id)`` fires after the id is assigned but *before*
        the first rank runs, so callers can install per-app routing
        overrides ahead of the job's first send.
        """
        if self._started:
            raise RuntimeError("cannot submit jobs after the simulation started")
        if arrival < 0:
            raise ValueError(f"arrival time must be >= 0, got {arrival}")
        self._pending.append((arrival, spec, on_launch))

    # -- execution ----------------------------------------------------------------
    def start(self) -> None:
        """Arm the runtime: schedule the t=0 bootstrap event.

        Idempotent; after the first call the job roster is frozen
        (:meth:`add_job`/:meth:`submit_job` raise).  Splitting this out
        of :meth:`run` is what makes the stepwise session lifecycle
        possible: ``start()`` once, then :meth:`step` in windows.
        """
        if not self.jobs and not self._pending:
            raise RuntimeError("no jobs added")
        if not self._started:
            self._started = True
            self.engine.adopt_ranks(self)
            self.engine.schedule_at(0.0, self._driver.lp_id, "start", None, Priority.MPI)

    def step(self, until: float = float("inf")) -> float:
        """Advance the started simulation to ``until`` (absolute time).

        Unlike :meth:`run` this performs *no* end-of-run metric
        publication, so a caller may interleave steps with observation
        and control decisions; call :meth:`publish_job_metrics` (or let
        the session's ``finalize()`` do it) when the run is over.
        Stepping commits the identical event sequence as one monolithic
        ``run`` over the same horizon.
        """
        self.start()
        return self.engine.step(until=until)

    def run(self, until: float = float("inf")) -> float:
        """Run the co-scheduled jobs until the horizon (or until drained)."""
        self.start()
        end = self.engine.run(until=until)
        self.publish_job_metrics()
        return end

    def publish_job_metrics(self) -> None:
        """Publish every job's reduced metrics into the telemetry store.

        One gauge per value under ``mpi.job.<name>.*`` -- the same
        reductions :class:`JobResult` exposes, so consumers (the
        scenario runner, metric sinks) read them from the store instead
        of re-deriving rows.  Idempotent; called automatically at the
        end of :meth:`run`.
        """
        self.fabric.sync()
        t = self.telemetry
        for j in self.jobs:
            r = self._result_of(j)
            base = job_key(r.name)
            lat = r.max_latencies_per_rank()
            values = (
                ("ranks", r.nranks, "ranks", "rank count"),
                ("app_id", r.app_id, "", "app id on the fabric"),
                ("finished", int(r.finished), "", "1 when every rank completed"),
                ("msgs_recvd", sum(s.msgs_recvd for s in r.rank_stats),
                 "messages", "messages received across ranks"),
                ("msgs_sent", sum(s.msgs_sent for s in r.rank_stats),
                 "messages", "messages sent across ranks"),
                ("bytes_sent", r.total_bytes_sent(), "bytes",
                 "payload bytes sent across ranks"),
                ("avg_msg_latency", r.avg_latency(), "seconds",
                 "mean latency over received messages"),
                ("max_msg_latency", max(lat) if lat else 0.0, "seconds",
                 "worst per-rank max message latency"),
                ("max_comm_time", r.max_comm_time(), "seconds",
                 "worst per-rank blocked-in-MPI time"),
                ("mean_comm_time", r.mean_comm_time(), "seconds",
                 "mean per-rank blocked-in-MPI time"),
            )
            for metric, value, unit, doc in values:
                t.gauge(f"{base}.{metric}", unit=unit, doc=doc).set(value)

    def _start_all(self) -> None:
        for arrival, spec, on_launch in self._pending:
            self.engine.schedule_at(
                arrival, self._driver.lp_id, "launch", (spec, on_launch), Priority.MPI
            )
        self._pending = []
        for job in self.jobs:
            self._start_job(job)

    def _driver_lp_for_node(self, node: int) -> int:
        """The driver LP serving ``node``'s partition."""
        drivers = self._drivers
        if len(drivers) == 1:
            return drivers[0].lp_id
        return drivers[self.engine.partition_of(self.fabric.terminal_lp_id(node))].lp_id

    def _start_job(self, job: "_Job") -> None:
        base = job_key(job.spec.name)
        self.telemetry.gauge(f"{base}.launched_at", unit="seconds",
                             doc="simulated time the job's ranks started").set(self.engine.now)
        if self._lat_rec is not None:
            # replace=True: a job relaunched on a shared session (e.g. a
            # manager re-run) gets a fresh histogram, matching how the
            # fabric's instruments supersede -- never merges two runs.
            hist = self.telemetry.histogram(
                f"{base}.msg_latency", unit="seconds",
                doc="per-message latency distribution", replace=True,
            )
            if hist.enabled:
                self._lat_rec[job.app_id] = hist.record
        # Fan the launch out as one rank_start event per rank, addressed
        # to the rank's partition driver, via the contract-safe control
        # path (this handler may be executing in a different partition
        # than the ranks it launches).  Scheduled in rank order at the
        # launch instant, the events commit in rank order on every
        # engine, so rank generators advance -- and draw from shared
        # routing/workload RNG streams -- in the same order everywhere.
        now = self.engine.now
        sched = self.engine.schedule_control
        for rs in job.ranks:
            rs.driver_lp = self._driver_lp_for_node(rs.node)
        if self._ranks is not None:
            first = self._ranks.add_job(job.app_id, job.spec.name, [
                (rs, rs.node, rs.driver_lp, rs.stats) for rs in job.ranks])
            for rs in job.ranks:
                rs.slot = first + rs.rank
        for rs in job.ranks:
            sched(now, rs.driver_lp, "rank_start", rs, Priority.MPI)

    def _begin_rank(self, rs: _RankState) -> None:
        ctx = self._ctx_cls(self, rs)
        rs.gen = rs.job.spec.program(ctx)
        if self._ranks is not None:
            self._ranks.begin_rank(rs.slot, rs.gen)
        else:
            self._advance(rs, None)

    def _launch_submission(self, item) -> None:
        spec, on_launch = item
        if callable(spec) and not isinstance(spec, JobSpec):
            spec = spec()
            if spec is None:  # factory declined (e.g. no free nodes)
                return
        self._check_nodes(spec)
        job = _Job(spec, len(self.jobs))
        self.jobs.append(job)
        if on_launch is not None:
            on_launch(job.app_id)
        self._start_job(job)

    def all_finished(self) -> bool:
        return all(j.finished for j in self.jobs)

    def _result_of(self, j: "_Job") -> JobResult:
        return JobResult(
            name=j.spec.name,
            app_id=j.app_id,
            nranks=len(j.ranks),
            rank_stats=[rs.stats for rs in j.ranks],
            finished=j.finished,
        )

    def results(self) -> list[JobResult]:
        self.fabric.sync()
        return [self._result_of(j) for j in self.jobs]

    # -- generator driving ------------------------------------------------------------
    def _advance(self, rs: _RankState, value: Any) -> None:
        if rs.coll is not None:
            value = self._run_collective(rs)
            if value is _BLOCKED:
                return
        gen = rs.gen
        assert gen is not None
        while True:
            try:
                op = gen.send(value)
            except StopIteration:
                self._finish_rank(rs)
                return
            value = self._dispatch(rs, op)
            if value is _BLOCKED:
                return

    def _finish_rank(self, rs: _RankState) -> None:
        """The rank's generator returned (resident ranks call in here)."""
        rs.finished = True
        rs.stats.finished_at = self.engine.now
        rs.job.done_ranks += 1
        if rs.job.finished:
            self.telemetry.gauge(
                job_key(rs.job.spec.name, "finished_at"), unit="seconds",
                doc="simulated time the job's last rank finished",
            ).set(self.engine.now)
            if self.job_end_callback is not None:
                self.fabric.sync()
                self.job_end_callback(self._result_of(rs.job))

    def _dispatch(self, rs: _RankState, op: Any) -> Any:
        # Exact-type method table first (the hot path for the canonical
        # ops); op subclasses and extension ops fall back to the
        # isinstance chain below.
        handler = self._op_dispatch.get(type(op))
        if handler is not None:
            return handler(rs, op)
        if isinstance(op, Isend):
            return self._op_isend(rs, op)
        if isinstance(op, Irecv):
            return self._op_irecv(rs, op)
        if isinstance(op, Wait):
            return self._op_wait(rs, op)
        if isinstance(op, Waitall):
            return self._op_waitall(rs, op)
        if isinstance(op, Compute):  # Sleep subclasses Compute
            return self._op_compute(rs, op)
        if isinstance(op, Collective):
            return self._op_collective(rs, op)
        handler = self.op_handlers.get(type(op))
        if handler is not None:
            return handler(self, rs, op)
        raise TypeError(f"rank program yielded unsupported object {op!r}")

    def _op_isend(self, rs: _RankState, op: Isend) -> Request:
        return self._isend(rs, op.dst, op.nbytes, op.tag)

    def _isend(self, rs: _RankState, dst: int, nbytes: int, tag: int) -> Request:
        now = self.engine.now
        if not 0 <= dst < len(rs.job.ranks):
            raise ValueError(
                f"rank {rs.rank} of {rs.job.spec.name!r} sends to invalid rank {dst}"
            )
        req = Request("send", rs.rank, nbytes, dst, tag, now)
        rs.stats.msgs_sent += 1
        rs.stats.bytes_sent += nbytes
        meta = (rs.job.app_id, rs.rank, dst, tag, nbytes, now, req)
        self.fabric.send_message(
            rs.job.app_id, rs.node, rs.job.spec.rank_to_node[dst], nbytes, meta
        )
        return req

    def _op_irecv(self, rs: _RankState, op: Irecv) -> Request:
        return self._irecv(rs, op.src, op.nbytes or 0, op.tag)

    def _irecv(self, rs: _RankState, src: int, nbytes: int, tag: int) -> Request:
        if src != ANY_SOURCE and not 0 <= src < len(rs.job.ranks):
            raise ValueError(
                f"rank {rs.rank} of {rs.job.spec.name!r} receives from invalid rank {src}"
            )
        req = Request("recv", rs.rank, nbytes, src, tag, self.engine.now)
        msg = self._match_unexpected(rs, src, tag)
        if msg is not None:
            req.complete = True
            req.result = msg
        else:
            rs.posted_recvs.append(req)
        return req

    def _op_wait(self, rs: _RankState, op: Wait) -> Any:
        return self._wait(rs, op.request)

    def _wait(self, rs: _RankState, req: Request) -> Any:
        if req.complete:
            return req.result
        req.waiter = rs
        rs.wait_group = None
        rs.pending_reqs = 1
        self._block(rs)
        return _BLOCKED

    def _op_waitall(self, rs: _RankState, op: Waitall) -> Any:
        return self._waitall(rs, op.requests)

    def _waitall(self, rs: _RankState, requests: list[Request]) -> Any:
        pending = [r for r in requests if not r.complete]
        if not pending:
            return [r.result for r in requests]
        for r in pending:
            r.waiter = rs
        rs.wait_group = requests
        rs.pending_reqs = len(pending)
        self._block(rs)
        return _BLOCKED

    def _op_compute(self, rs: _RankState, op: Compute) -> Any:
        rs.stats.compute_time += op.seconds
        self.engine.schedule(op.seconds, rs.driver_lp, "wake", rs, Priority.WAKEUP)
        rs.blocked = False  # not comm-blocked; just descheduled
        return _BLOCKED

    def _op_collective(self, rs: _RankState, op: Collective) -> Any:
        rs.coll = op
        rs.coll_pc = 0
        rs.coll_reqs = []
        return self._run_collective(rs)

    def _run_collective(self, rs: _RankState) -> Any:
        """Issue the running collective's steps until one blocks
        (``_BLOCKED``) or the schedule ends (``None``, the value the
        collective call returns)."""
        op = rs.coll
        base = op.tag_base
        code = op.schedule.code
        reqs = rs.coll_reqs
        pc, end = rs.coll_pc, len(code)
        while pc < end:
            step = code[pc]
            if step == ISEND:
                reqs.append(self._isend(rs, code[pc + 1], code[pc + 2], base + code[pc + 3]))
                pc += 4
            elif step == IRECV:
                reqs.append(self._irecv(rs, code[pc + 1], 0, base + code[pc + 2]))
                pc += 3
            else:
                if step == WAIT:
                    value = self._wait(rs, reqs[code[pc + 1]])
                    pc += 2
                else:  # WAITALL
                    n = code[pc + 1]
                    value = self._waitall(rs, [reqs[q] for q in code[pc + 2:pc + 2 + n]])
                    pc += 2 + n
                if value is _BLOCKED:
                    rs.coll_pc = pc
                    return _BLOCKED
        rs.coll = None
        rs.coll_reqs = []
        return None

    def _block(self, rs: _RankState) -> None:
        rs.blocked = True
        rs.block_start = self.engine.now

    def _unblock(self, rs: _RankState, value: Any) -> None:
        rs.blocked = False
        rs.stats.comm_time += self.engine.now - rs.block_start
        self._advance(rs, value)

    def _on_wake(self, rs: _RankState) -> None:
        self._advance(rs, None)

    # -- completion plumbing -----------------------------------------------------------
    def _match_unexpected(self, rs: _RankState, src: int, tag: int) -> Message | None:
        for i, msg in enumerate(rs.unexpected):
            if (src == ANY_SOURCE or msg.src == src) and (tag == ANY_TAG or msg.tag == tag):
                return rs.unexpected.pop(i)
        return None

    def _on_delivery(self, msg_id: int, meta: Any, time: float) -> None:
        if isinstance(meta, MessageHook):
            meta.on_delivered(time)
            return
        app_id, src_rank, dst_rank, tag, nbytes, posted_at, _send_req = meta
        job = self.jobs[app_id]
        rs = job.ranks[dst_rank]
        rs.stats.msgs_recvd += 1
        latency = time - posted_at
        rs.stats.latencies.append(latency)
        if self._lat_rec is not None:
            rec = self._lat_rec.get(app_id)
            if rec is not None:
                rec(latency)
        msg = Message(src_rank, tag, nbytes, posted_at, time)
        for i, req in enumerate(rs.posted_recvs):
            if (req.peer == ANY_SOURCE or req.peer == src_rank) and (
                req.tag == ANY_TAG or req.tag == tag
            ):
                rs.posted_recvs.pop(i)
                self._complete_request(req, msg)
                return
        rs.unexpected.append(msg)

    def _on_injected(self, msg_id: int, meta: Any, time: float) -> None:
        if isinstance(meta, MessageHook):
            meta.on_injected(time)
            return
        send_req: Request = meta[6]
        self._complete_request(send_req, None)

    def _complete_request(self, req: Request, result: Any) -> None:
        req.complete = True
        req.result = result
        rs = req.waiter
        if rs is None or not rs.blocked:
            return
        req.waiter = None
        rs.pending_reqs -= 1
        if rs.pending_reqs > 0:
            return
        if rs.wait_group is not None:
            value = [r.result for r in rs.wait_group]
            rs.wait_group = None
        else:
            value = result
        self._unblock(rs, value)

