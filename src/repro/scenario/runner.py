"""Build and run one scenario; reduce the outcome to a report.

``build_manager`` turns a validated :class:`ScenarioSpec` into a wired
:class:`~repro.union.manager.WorkloadManager` (catalog apps, translated
DSL sources, background-traffic injectors, arrival times, per-job
overrides) recording into one :class:`~repro.telemetry.Telemetry`
session shaped by the spec's ``[metrics]`` table.  ``run_scenario``
executes it and reduces the per-job rows of the plain-data
:class:`ScenarioResult` **from the telemetry store** (the
``mpi.job.<name>.*`` gauges the runtime and scheduler publish), then
drives the spec's sinks: a JSONL metric-row stream and/or a summary
dict embedded in the result document.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.harness.configs import default_counter_window, make_topology
from repro.harness.report import engine_line, format_bytes, format_seconds, render_table
from repro.mpi.engine import job_key
from repro.registry import RegistryError, build_topology, default_engine_info
from repro.scenario.spec import JobEntry, ScenarioError, ScenarioSpec, TrafficEntry, entry_dict
from repro.telemetry import RESULT_SCHEMA_VERSION, JsonlSink, SummarySink, Telemetry
from repro.union.manager import Job, RunOutcome, WorkloadManager
from repro.union.translator import translate
from repro.workloads.catalog import app_catalog
from repro.workloads.hotspot import hotspot
from repro.workloads.uniform_random import uniform_random

_TRAFFIC_PROGRAMS = {"uniform": uniform_random, "hotspot": hotspot}


def _build_job(entry: JobEntry, scale: str, base_dir: Path | None) -> Job:
    common = dict(
        params=dict(entry.params),
        routing=entry.routing,
        arrival=entry.arrival,
        placement=entry.placement,
    )
    if entry.app is not None:
        spec = app_catalog(scale)[entry.app]
        params = dict(spec.params)
        params.update(entry.params)
        common["params"] = params
        nranks = entry.nranks or spec.nranks
        dims = params.get("dims")
        if dims is not None:
            total = 1
            for d in dims:
                total *= int(d)
            if total != nranks:
                raise ScenarioError(
                    f"job {entry.name!r}: nranks={nranks} does not match the "
                    f"{entry.app!r} grid dims {tuple(dims)} (= {total} ranks); "
                    "override params.dims alongside nranks"
                )
        if spec.kind == "skeleton":
            return Job(entry.name, nranks, skeleton=spec.skeleton_factory(), **common)
        return Job(entry.name, nranks, program=spec.program, **common)
    path = Path(entry.source)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    if not path.is_file():
        raise ScenarioError(
            f"job {entry.name!r}: source file not found: {path} "
            "(relative paths resolve against the spec file)"
        )
    skeleton = translate(path.read_text(), entry.name)
    return Job(entry.name, entry.nranks, skeleton=skeleton, **common)


def _build_traffic(entry: TrafficEntry, seed: int) -> Job:
    params = {
        "msg_bytes": entry.msg_bytes,
        "interval_s": entry.interval_s,
        "iters": entry.iters,
        "seed": seed,
    }
    if entry.pattern == "hotspot":
        params["hot_ranks"] = entry.hot_ranks
    return Job(
        entry.name,
        entry.nranks,
        program=_TRAFFIC_PROGRAMS[entry.pattern],
        params=params,
        routing=entry.routing,
        arrival=entry.arrival,
        placement=entry.placement,
        background=True,
    )


def build_scenario_topology(spec: ScenarioSpec):
    """Instantiate the spec's topology (sugar or explicit registry form)."""
    if spec.topology is None:
        return make_topology(spec.network, spec.scale)
    try:
        return build_topology(spec.topology)
    except RegistryError as exc:
        raise ScenarioError(str(exc)) from None
    except ValueError as exc:
        # Structural constraints only the model itself can check
        # (fat-tree k must be even, slim fly q must be a 4w+1 prime...).
        raise ScenarioError(f"topology: {exc}") from None


def build_telemetry(spec: ScenarioSpec) -> Telemetry:
    """The run's telemetry session, shaped by the ``[metrics]`` table."""
    enable = spec.metrics.enable_families() if spec.metrics is not None else ()
    return Telemetry(enable=enable)


def build_manager(spec: ScenarioSpec) -> WorkloadManager:
    """Wire a :class:`WorkloadManager` exactly as the spec describes."""
    topo = build_scenario_topology(spec)
    window = (
        spec.counter_window
        if spec.counter_window is not None
        else default_counter_window()
    )
    storage_nodes = None
    if spec.storage is not None:
        if spec.storage.servers > topo.n_nodes:
            raise ScenarioError(
                f"storage.servers: {spec.storage.servers} servers do not fit "
                f"the topology's {topo.n_nodes} nodes"
            )
        # The last N terminal nodes host the servers.
        storage_nodes = [topo.n_nodes - 1 - i for i in range(spec.storage.servers)]
    mgr = WorkloadManager(
        topo,
        routing=spec.routing,
        placement=spec.placement,
        seed=spec.seed,
        counter_window=window,
        storage_nodes=storage_nodes,
        telemetry=build_telemetry(spec),
        engine=dict(spec.engine) if spec.engine is not None else None,
        faults=spec.faults,
    )
    for entry in spec.jobs:
        mgr.add_job(_build_job(entry, spec.scale, spec.base_dir))
    for i, entry in enumerate(spec.traffic):
        # Salt the seed per injector so every injector emits an
        # independent stream.  The stride must dominate the per-pattern
        # salts workload_rng folds into the same scalar (uniform 7,
        # hotspot 11), or injectors of different patterns at nearby
        # indices would alias onto one stream.
        mgr.add_job(_build_traffic(entry, spec.seed + 1009 * i))
    return mgr


@dataclass
class JobReport:
    """Per-job metrics of one scenario run, as plain data."""

    name: str
    nranks: int
    background: bool
    arrival: float
    started: bool
    finished: bool
    #: Background injector with no natural end (iters = 0): "running"
    #: at the horizon is its expected state, not a truncation.
    endless: bool = False
    avg_latency: float = 0.0
    max_latency: float = 0.0
    max_comm_time: float = 0.0
    messages: int = 0
    bytes_sent: int = 0
    n_groups: int = 0
    skip_reason: str = ""


@dataclass
class ScenarioResult:
    """Everything one scenario run reports (JSON-serializable core)."""

    scenario: str
    network: str
    scale: str
    routing: str
    placement: str
    seed: int
    horizon: float
    end_time: float
    events: int
    jobs: list[JobReport]
    link_summary: dict[str, float]
    #: Canonical explicit ``[topology]`` table; ``None`` for legacy
    #: dragonfly sugar specs (whose JSON form stays unchanged).
    topology: dict[str, Any] | None = None
    #: The spec's ``[engine]`` table plus the resolved execution stats
    #: (partitions, lookahead, windows); ``None`` for a spec without
    #: one (the default preset), keeping those runs' JSON form
    #: unchanged -- the text report still names what ran.
    engine: dict[str, Any] | None = None
    #: Telemetry summary (the ``[metrics] summary = true`` sink output);
    #: ``None`` unless the spec asked for it.
    metrics: dict[str, Any] | None = None
    #: Episode record when the run went through ``repro.env`` (policy,
    #: steps, rewards); ``None`` for plain scenario runs, keeping their
    #: JSON form unchanged.
    env: dict[str, Any] | None = None
    #: Fault record: the spec's ``[[faults]]`` entries plus the plane's
    #: transition/avoidance counters; ``None`` for fault-free runs,
    #: keeping their JSON form unchanged.
    faults: dict[str, Any] | None = None
    #: The live outcome (fabric, counters) -- in-process callers only,
    #: excluded from the JSON form.
    outcome: RunOutcome | None = field(default=None, repr=False, compare=False)

    @property
    def telemetry(self) -> Telemetry | None:
        """The run's live telemetry session (in-process callers only)."""
        return self.outcome.manager.telemetry if self.outcome is not None else None

    def to_json_dict(self) -> dict[str, Any]:
        # Not dataclasses.asdict: that would deep-copy the live outcome.
        out = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "network": self.network,
            "scale": self.scale,
            "routing": self.routing,
            "placement": self.placement,
            "seed": self.seed,
            "horizon": self.horizon,
            "end_time": self.end_time,
            "events": self.events,
            "jobs": [asdict(j) for j in self.jobs],
            "link_summary": dict(self.link_summary),
        }
        if self.topology is not None:
            out["topology"] = dict(self.topology)
        if self.engine is not None:
            out["engine"] = dict(self.engine)
        if self.metrics is not None:
            out["metrics"] = dict(self.metrics)
        if self.env is not None:
            out["env"] = dict(self.env)
        if self.faults is not None:
            out["faults"] = dict(self.faults)
        return out

    def job(self, name: str) -> JobReport:
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(f"no job named {name!r}; have {[j.name for j in self.jobs]}")


def _job_report_from_store(t: Telemetry, job: Job, endless: bool,
                           skip_reason: str) -> JobReport:
    """One :class:`JobReport` row, read from the ``mpi.job.<name>.*``
    gauges the runtime and scheduler published into the store."""
    base = job_key(job.name)

    def val(metric: str, default: float = 0.0) -> float:
        inst = t.get(f"{base}.{metric}")
        return inst.value if inst is not None else default

    started = bool(val("started"))
    return JobReport(
        name=job.name,
        nranks=int(val("ranks")) if started else job.nranks,
        background=job.background,
        arrival=job.arrival,
        started=started,
        finished=bool(val("finished")),
        endless=endless,
        avg_latency=val("avg_msg_latency"),
        max_latency=val("max_msg_latency"),
        max_comm_time=val("max_comm_time"),
        messages=int(val("msgs_recvd")),
        bytes_sent=int(val("bytes_sent")),
        n_groups=int(val("n_groups")),
        skip_reason=skip_reason,
    )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario end to end and reduce it to a result.

    The per-job rows come from the telemetry store (one probe/sink
    pipeline for every measurement); the spec's ``[metrics]`` sinks are
    driven here -- a JSONL row stream to ``metrics.jsonl`` and/or the
    embedded summary dict.
    """
    mgr = build_manager(spec)
    outcome = mgr.run(until=spec.horizon)
    return reduce_scenario_result(spec, outcome)


def reduce_scenario_result(spec: ScenarioSpec, outcome: RunOutcome) -> ScenarioResult:
    """Reduce a finalized :class:`RunOutcome` to a :class:`ScenarioResult`.

    Shared tail of every run path -- the monolithic :func:`run_scenario`
    and a stepwise :class:`repro.env.SimulationEnv` episode both end
    here, which is what keeps their result JSON bit-identical (modulo
    the env's own ``env`` record).  Drives the spec's ``[metrics]``
    sinks as a side effect.
    """
    mgr = outcome.manager
    t = mgr.telemetry
    skipped = dict(outcome.not_started)
    reports = [
        _job_report_from_store(
            t, job,
            endless=job.background and int(job.params.get("iters", 0)) == 0,
            skip_reason=skipped.get(job.name, ""),
        )
        for job in mgr.jobs
    ]
    engine_info = None
    if spec.engine is not None:
        # The spec's table plus what the run resolved (Engine.describe).
        engine_info = dict(spec.engine)
        engine_info.update(outcome.fabric.engine.describe())
    faults_info = None
    if spec.faults:
        def fault_val(metric: str) -> int:
            inst = t.get(f"net.fault.{metric}")
            return int(inst.value) if inst is not None else 0

        faults_info = {
            "entries": [entry_dict(f) for f in spec.faults],
            "transitions": fault_val("transitions"),
            "avoided_paths": fault_val("avoided"),
            "unavoidable_paths": fault_val("unavoidable"),
        }
    metrics_summary = None
    m = spec.metrics
    if m is not None:
        pattern = m.filter or None
        meta = {"scenario": spec.name, "seed": spec.seed, "horizon": spec.horizon}
        if m.jsonl:
            t.export(JsonlSink(m.jsonl), pattern, meta=meta)
        if m.summary:
            metrics_summary = t.export(SummarySink(), pattern, meta=meta).summary
    return ScenarioResult(
        scenario=spec.name,
        network=spec.network,
        scale=spec.scale,
        routing=spec.routing,
        placement=spec.placement,
        seed=spec.seed,
        horizon=spec.horizon,
        end_time=outcome.end_time,
        events=outcome.fabric.engine.events_processed,
        jobs=reports,
        link_summary=outcome.link_load_summary(),
        topology=spec.topology,
        engine=engine_info,
        metrics=metrics_summary,
        faults=faults_info,
        outcome=outcome,
    )


def render_scenario_report(result: ScenarioResult) -> str:
    """The ``union-sim scenario`` table: one row per job."""
    rows = []
    for j in result.jobs:
        if not j.started:
            status = "skipped"
        elif j.finished:
            status = "done"
        else:
            # A finite injector truncated by the horizon is "cut off"
            # like any app; only endless ones are expected to be running.
            status = "running" if j.endless else "cut off"
        rows.append((
            j.name,
            "traffic" if j.background else "app",
            j.nranks,
            format_seconds(j.arrival) if j.arrival else "0",
            status,
            format_seconds(j.avg_latency),
            format_seconds(j.max_latency),
            format_seconds(j.max_comm_time),
            j.messages,
        ))
    if result.topology is None:
        where = f"{result.network} {result.scale} dragonfly"
    else:
        extras = ", ".join(
            f"{k}={v}" for k, v in result.topology.items() if k != "type"
        )
        where = result.topology["type"] + (f" ({extras})" if extras else "")
    table = render_table(
        ["job", "kind", "ranks", "arrival", "status",
         "avg msg lat", "max msg lat", "max comm time", "msgs"],
        rows,
        title=(f"scenario {result.scenario!r} on {where} "
               f"({result.placement}-{result.routing}, seed {result.seed})"),
    )
    ls = result.link_summary
    lines = [table]
    for j in result.jobs:
        if j.skip_reason:
            lines.append(f"  note: {j.name}: {j.skip_reason}")
    lines.append(
        f"end time {format_seconds(result.end_time)} of "
        f"{format_seconds(result.horizon)} horizon; "
        f"{result.events} events; link loads: "
        f"global={format_bytes(ls['global_total_bytes'])} "
        f"local={format_bytes(ls['local_total_bytes'])} "
        f"(global fraction {ls['global_fraction']:.1%})"
    )
    e = result.engine
    if e is None and result.outcome is not None:
        e = default_engine_info(result.outcome.fabric.engine)
    if e is not None:
        lines.append(engine_line(e))
    f = result.faults
    if f is not None:
        kinds = ", ".join(f"{x['name']} ({x['kind']})" for x in f["entries"])
        lines.append(
            f"faults: {kinds}; {f['transitions']} transitions, "
            f"{f['avoided_paths']} paths re-routed, "
            f"{f['unavoidable_paths']} unavoidable"
        )
    return "\n".join(lines)
