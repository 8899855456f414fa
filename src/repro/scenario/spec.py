"""Declarative scenario specs: parsing and validation.

A *scenario* is one co-scheduled simulation described as data instead of
a hand-written Python script: the topology (any registered fabric model,
parameterized through its ``[topology]`` table), the fabric-wide routing
and placement policies (validated against that topology's registry
capability lists), the seed and horizon, a list of jobs -- each with an
optional arrival time and per-job routing/placement overrides -- and a
list of background-traffic injectors that load the fabric underneath the
measured applications.

Specs live in TOML (stdlib :mod:`tomllib`) or JSON files, or are built
programmatically from plain dicts via :func:`parse_scenario`.  The
format is documented with worked examples in ``docs/scenarios.md``;
``scripts/check_docs.py`` validates every snippet there against this
parser, so the docs cannot drift.

Every validation failure raises :class:`ScenarioError` carrying the
offending key path (``jobs[2].nranks``) and what was expected -- specs
are written by hand, so error messages are the user interface.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.harness.configs import NETWORKS, default_horizon
from repro.registry import (
    SCALES,
    EngineSpec,
    PolicySpec,
    RegistryError,
    TopologySpec,
    all_routing_names,
    available_placements,
    check_placement,
    engine_registry,
    placement_registry,
    policy_registry,
    routing_spec,
    topology_registry,
)
from repro.telemetry import metric_segment
from repro.workloads.catalog import app_catalog

#: Background-traffic patterns a ``[[traffic]]`` entry may name.
TRAFFIC_PATTERNS = ("uniform", "hotspot")

#: Reward signals an ``[env]`` table may name.
ENV_REWARDS = ("avg_latency", "comm_time")

#: Fault kinds a ``[[faults]]`` entry may name (``docs/faults.md``).
FAULT_KINDS = ("link-degrade", "link-down", "router-down", "storage-slow")

#: Fault kinds that take an element out entirely, so every effective
#: routing must be capable of steering around it (``RoutingSpec.adaptive``).
DOWN_FAULT_KINDS = ("link-down", "router-down")


class ScenarioError(ValueError):
    """A scenario spec failed validation; the message names the key path."""


def _err(path: str, problem: str) -> ScenarioError:
    where = f"{path}: " if path else ""
    return ScenarioError(f"{where}{problem}")


def _require_mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise _err(path, f"expected a table/object, got {type(value).__name__}")
    return value


def _check_keys(data: Mapping, allowed: dict[str, str], path: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        expected = ", ".join(sorted(allowed))
        raise _err(
            f"{path}.{key}" if path else key,
            f"unknown key {key!r}; expected one of: {expected}",
        )


def _get_str(data: Mapping, key: str, path: str, default: str | None = None,
             choices: tuple[str, ...] | None = None) -> str | None:
    value = data.get(key, default)
    if value is None:
        return None
    if not isinstance(value, str):
        raise _err(f"{path}.{key}" if path else key,
                   f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise _err(f"{path}.{key}" if path else key,
                   f"{value!r} is not one of {list(choices)}")
    return value


def _get_int(data: Mapping, key: str, path: str, default: int | None = None,
             minimum: int | None = None) -> int | None:
    value = data.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(f"{path}.{key}" if path else key,
                   f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}" if path else key,
                   f"must be >= {minimum}, got {value}")
    return value


def _get_bool(data: Mapping, key: str, path: str, default: bool = False) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise _err(f"{path}.{key}" if path else key,
                   f"expected true/false, got {value!r}")
    return value


def _get_float(data: Mapping, key: str, path: str, default: float | None = None,
               minimum: float | None = None) -> float | None:
    value = data.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(f"{path}.{key}" if path else key,
                   f"expected a number, got {value!r}")
    value = float(value)
    if value != value:  # nan passes every range check
        raise _err(f"{path}.{key}" if path else key,
                   "expected a number, got nan")
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}" if path else key,
                   f"must be >= {minimum}, got {value}")
    return value


@dataclass
class JobEntry:
    """One measured application in a scenario.

    Exactly one of ``app``/``source`` is set: ``app`` names a
    workload-catalog entry (``cosmoflow``, ``lammps``, ...) whose rank
    count and parameters become defaults; ``source`` points to a
    coNCePTuaL file (relative paths resolve against the spec file) that
    is translated to a Union skeleton when the scenario is built.
    """

    name: str
    app: str | None = None
    source: str | None = None
    nranks: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    arrival: float = 0.0
    routing: str | None = None
    placement: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name}
        if self.app is not None:
            out["app"] = self.app
        if self.source is not None:
            out["source"] = self.source
        if self.nranks is not None:
            out["nranks"] = self.nranks
        if self.params:
            out["params"] = dict(self.params)
        if self.arrival:
            out["arrival"] = self.arrival
        if self.routing is not None:
            out["routing"] = self.routing
        if self.placement is not None:
            out["placement"] = self.placement
        return out


@dataclass
class TrafficEntry:
    """One background-traffic injector (not a measured application)."""

    name: str
    pattern: str = "uniform"  # "uniform" | "hotspot"
    nranks: int = 8
    msg_bytes: int = 10240
    interval_s: float = 1e-3
    iters: int = 0  # 0 = endless (until the horizon)
    hot_ranks: int = 1  # hotspot only: how many ranks are targets
    arrival: float = 0.0
    routing: str | None = None
    placement: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "pattern": self.pattern,
            "nranks": self.nranks,
            "msg_bytes": self.msg_bytes,
            "interval_s": self.interval_s,
        }
        if self.iters:
            out["iters"] = self.iters
        if self.pattern == "hotspot":
            out["hot_ranks"] = self.hot_ranks
        if self.arrival:
            out["arrival"] = self.arrival
        if self.routing is not None:
            out["routing"] = self.routing
        if self.placement is not None:
            out["placement"] = self.placement
        return out


@dataclass
class FaultEntry:
    """One scheduled fabric/storage fault (a ``[[faults]]`` entry).

    Faults are first-class scenario events: each is lowered onto the
    engine control plane at build time (``schedule_control`` at
    ``start`` and ``start + duration``) and applied/reverted by the
    fault plane (:mod:`repro.faults`).  ``router``/``router_b`` are
    router indices into the built topology -- range-checked when the
    scenario is built, since the parser has no instance.  ``factor``
    scales the affected link bandwidth (``link-degrade``, must be in
    (0, 1)) or the storage service time (``storage-slow``, must be
    > 1).
    """

    name: str
    kind: str
    start: float
    duration: float
    router: int | None = None
    router_b: int | None = None
    factor: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
        }
        if self.router is not None:
            out["router"] = self.router
        if self.router_b is not None:
            out["router_b"] = self.router_b
        if self.factor is not None:
            out["factor"] = self.factor
        return out


@dataclass
class StorageEntry:
    """The ``[storage]`` table: burst-buffer servers on the fabric.

    ``servers = N`` attaches a storage server to each of the last ``N``
    terminal nodes (exactly what ``union-sim simulate
    --storage-servers`` does).  Needed by ``storage-slow`` faults,
    which have nothing to slow down otherwise.
    """

    servers: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {"servers": self.servers}


@dataclass
class MetricsEntry:
    """The ``[metrics]`` table: telemetry configuration of a scenario.

    Declares what the run exports (``jsonl`` sink path, ``filter``
    globs over hierarchical metric keys, ``summary`` embedding into the
    result JSON) and which opt-in instrument families to switch on --
    per-port queue-occupancy time series and per-job message-latency
    histograms, measurements that previously required writing Python.
    """

    jsonl: str | None = None  # metric-row JSONL path (resolved against cwd)
    filter: list[str] = field(default_factory=list)  # export key globs ([] = all)
    summary: bool = False  # embed a metrics summary in the result JSON
    queue_occupancy: bool = False  # enable net.router.queue
    latency_histograms: bool = False  # enable mpi.job.msg_latency

    def enable_families(self) -> tuple[str, ...]:
        """Telemetry family keys this table switches on."""
        out = []
        if self.queue_occupancy:
            out.append("net.router.queue")
        if self.latency_histograms:
            out.append("mpi.job.msg_latency")
        return tuple(out)

    def overridden(self, jsonl: str | None = None,
                   filter: list[str] | None = None) -> "MetricsEntry":
        """A copy with the sink/filter overridden (CLI flags, batch);
        the opt-in instrument switches always carry over."""
        return MetricsEntry(
            jsonl=jsonl if jsonl is not None else self.jsonl,
            filter=list(filter) if filter else list(self.filter),
            summary=self.summary,
            queue_occupancy=self.queue_occupancy,
            latency_histograms=self.latency_histograms,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.jsonl is not None:
            out["jsonl"] = self.jsonl
        if self.filter:
            out["filter"] = list(self.filter)
        for flag in ("summary", "queue_occupancy", "latency_histograms"):
            if getattr(self, flag):
                out[flag] = True
        return out


@dataclass
class EnvEntry:
    """The ``[env]`` table: control-surface configuration of a scenario.

    Makes the scenario runnable as a :class:`repro.env.SimulationEnv`
    episode (``union-sim env <spec>``): which control policy drives the
    session's decision hooks, how long one decision window is, and which
    reward signal scores the episode.
    """

    #: Canonical policy table (``{"type": "load-aware"}``); resolved
    #: through the ``policy`` registry family.
    policy: dict[str, Any] = field(default_factory=lambda: {"type": "scripted"})
    #: Seconds of simulated time per ``env.step()``; ``None`` defaults
    #: to an eighth of the horizon.
    window: float | None = None
    #: Reward signal: negative delta of the running mean message latency
    #: over measured jobs (``avg_latency``) or of the worst per-job
    #: communication time (``comm_time``).
    reward: str = "avg_latency"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.policy != {"type": "scripted"}:
            out["policy"] = dict(self.policy)
        if self.window is not None:
            out["window"] = self.window
        if self.reward != "avg_latency":
            out["reward"] = self.reward
        return out


@dataclass
class ScenarioSpec:
    """A fully validated scenario, ready for :func:`repro.scenario.runner.run_scenario`.

    ``topology`` is the canonical parameterized table for explicit
    ``[topology] type = "..."`` specs (sparse: the type, the scale
    preset, and only the explicitly overridden parameters); ``None``
    means the spec used the legacy ``network``/``scale`` dragonfly
    sugar, which keeps parsing -- and round-tripping -- bit-for-bit as
    before.  ``network`` holds the legacy alias (``"1d"``/``"2d"``) in
    sugar form and the registry type name otherwise.
    """

    name: str
    network: str = "1d"
    scale: str = "mini"
    routing: str = "adp"
    placement: str = "rg"
    seed: int = 1
    horizon: float = 0.0  # resolved: always > 0 after parsing
    counter_window: float | None = None
    jobs: list[JobEntry] = field(default_factory=list)
    traffic: list[TrafficEntry] = field(default_factory=list)
    base_dir: Path | None = None  # where relative job sources resolve
    topology: dict[str, Any] | None = None  # explicit [topology] table
    metrics: MetricsEntry | None = None  # [metrics] telemetry table
    #: Canonical ``[engine]`` table (``{"type": "conservative",
    #: "partitions": 8}``); ``None`` keeps the default preset
    #: (``registry.engines.DEFAULT_ENGINE``) and the stanza-less JSON form.
    engine: dict[str, Any] | None = None
    #: The ``[env]`` control-surface table; ``None`` for plain
    #: scenarios (they still run as env episodes with the defaults).
    env: EnvEntry | None = None
    #: Scheduled fabric/storage faults (``[[faults]]`` entries).
    faults: list[FaultEntry] = field(default_factory=list)
    #: The ``[storage]`` table; ``None`` runs without storage servers.
    storage: StorageEntry | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form that round-trips through :func:`parse_scenario`."""
        if self.topology is None:
            topology: dict[str, Any] = {"network": self.network, "scale": self.scale}
        else:
            topology = dict(self.topology)
        out: dict[str, Any] = {
            "name": self.name,
            "topology": topology,
            "routing": self.routing,
            "placement": self.placement,
            "seed": self.seed,
            "horizon": self.horizon,
            "jobs": [j.to_dict() for j in self.jobs],
        }
        if self.counter_window is not None:
            out["counter_window"] = self.counter_window
        if self.traffic:
            out["traffic"] = [t.to_dict() for t in self.traffic]
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.engine is not None:
            out["engine"] = dict(self.engine)
        if self.env is not None:
            out["env"] = self.env.to_dict()
        if self.faults:
            out["faults"] = [f.to_dict() for f in self.faults]
        if self.storage is not None:
            out["storage"] = self.storage.to_dict()
        if self.base_dir is not None:
            # Keep relative job sources resolvable after a round trip.
            out["base_dir"] = str(self.base_dir)
        return out


_TOP_KEYS = {
    "name": "scenario name",
    "topology": "[topology] table",
    "routing": "fabric-wide routing",
    "placement": "fabric-wide placement",
    "seed": "master seed",
    "horizon": "simulation horizon (s)",
    "counter_window": "router counter window (s)",
    "jobs": "[[jobs]] entries",
    "traffic": "[[traffic]] entries",
    "base_dir": "directory for relative job sources",
    "metrics": "[metrics] telemetry table",
    "engine": "[engine] execution-engine table",
    "env": "[env] control-surface table",
    "faults": "[[faults]] entries",
    "storage": "[storage] burst-buffer table",
}

_METRICS_KEYS = {
    "jsonl": "metric-row JSONL output path",
    "filter": "export key glob(s)",
    "summary": "embed a metrics summary in the result JSON",
    "queue_occupancy": "per-port queue-depth series",
    "latency_histograms": "per-job message-latency histograms",
}


def _parse_metrics(data: Mapping) -> MetricsEntry | None:
    """Validate the optional ``[metrics]`` table."""
    if "metrics" not in data:
        return None
    raw = _require_mapping(data["metrics"], "metrics")
    _check_keys(raw, _METRICS_KEYS, "metrics")
    filt = raw.get("filter", [])
    if isinstance(filt, str):
        filt = [filt]
    if not isinstance(filt, list) or not all(isinstance(f, str) for f in filt):
        raise _err("metrics.filter",
                   f"expected a glob string or array of globs, got {filt!r}")
    return MetricsEntry(
        jsonl=_get_str(raw, "jsonl", "metrics"),
        filter=list(filt),
        summary=_get_bool(raw, "summary", "metrics"),
        queue_occupancy=_get_bool(raw, "queue_occupancy", "metrics"),
        latency_histograms=_get_bool(raw, "latency_histograms", "metrics"),
    )

_ENV_KEYS = {
    "policy": "control policy (name or {type = ...} table)",
    "window": "seconds per env step",
    "reward": "reward signal (avg_latency|comm_time)",
}


def parse_policy_table(raw: Any, path: str = "policy") -> dict[str, Any]:
    """Validate a policy name or table against the policy registry.

    Returns the canonical sparse table (``{"type": name, ...params}``),
    mirroring :func:`parse_engine_table` for the ``policy`` family; also
    the validator behind ``union-sim env --policy``.
    """
    if isinstance(raw, str):
        raw = {"type": raw}
    raw = _require_mapping(raw, path)
    name = raw.get("type")
    if name is None:
        raise _err(f"{path}.type",
                   f"missing policy name; available: "
                   f"{list(policy_registry.names())}")
    try:
        spec = policy_registry.get(name, path=f"{path}.type")
        assert isinstance(spec, PolicySpec)
        params = {k: v for k, v in raw.items() if k != "type"}
        params = spec.validate_params(params, path, kind="policy")
    except RegistryError as exc:
        raise ScenarioError(str(exc)) from None
    return {"type": spec.name, **params}


def _parse_env(data: Mapping) -> EnvEntry | None:
    """Validate the optional ``[env]`` control-surface table."""
    if "env" not in data:
        return None
    raw = _require_mapping(data["env"], "env")
    _check_keys(raw, _ENV_KEYS, "env")
    policy = raw.get("policy", "scripted")
    window = _get_float(raw, "window", "env", minimum=0.0)
    if window == 0.0:
        raise _err("env.window", "must be > 0 (seconds of simulated time "
                                 "per env step)")
    return EnvEntry(
        policy=parse_policy_table(policy, path="env.policy"),
        window=window,
        reward=_get_str(raw, "reward", "env", default="avg_latency",
                        choices=ENV_REWARDS),
    )


def parse_engine_table(raw: Mapping) -> dict[str, Any]:
    """Validate one ``[engine]`` table against the engine registry.

    Returns the canonical sparse table (engine name plus only the
    explicitly given parameters, typed-validated); cross-checks that
    need the live topology (partition counts vs. group structure, the
    lookahead ceiling) happen when the run builds its engine.  Also the
    validator behind the CLI/batch ``--engine`` overrides.
    """
    raw = _require_mapping(raw, "engine")
    name = raw.get("type")
    if name is None:
        raise _err("engine.type",
                   f"missing engine name; available: "
                   f"{list(engine_registry.names())}")
    try:
        spec = engine_registry.get(name, path="engine.type")
        assert isinstance(spec, EngineSpec)
        params = {k: v for k, v in raw.items() if k != "type"}
        params = spec.validate_params(params, "engine", kind="engine")
    except RegistryError as exc:
        raise ScenarioError(str(exc)) from None
    return {"type": spec.name, **params}


_TOPOLOGY_KEYS = {"network": "1d|2d", "scale": "mini|paper"}


def _parse_topology(data: Mapping) -> tuple[str, str, dict[str, Any] | None, TopologySpec]:
    """Validate the ``[topology]`` table.

    Two forms: the legacy dragonfly sugar ``{network = "1d", scale =
    "mini"}`` (parsed exactly as it always was) and the explicit
    registry form ``{type = "fattree", k = 8}`` -- any registered
    topology name with an optional ``scale`` preset plus typed
    parameter overrides.  Returns ``(network, scale, canonical,
    topo_spec)`` where ``canonical`` is ``None`` for the sugar form.
    """
    raw = _require_mapping(data.get("topology", {}), "topology")
    if "type" not in raw:
        # Mention 'type' in unknown-key errors so a typo'd explicit form
        # is steered towards the registry syntax, not away from it.
        _check_keys(raw, {**_TOPOLOGY_KEYS, "type": "registry topology"}, "topology")
        network = _get_str(raw, "network", "topology", default="1d", choices=NETWORKS)
        scale = _get_str(raw, "scale", "topology", default="mini", choices=SCALES)
        spec = topology_registry.get(network)
        assert isinstance(spec, TopologySpec)
        return network, scale, None, spec
    if "network" in raw:
        raise _err("topology", "set exactly one of 'network' (legacy dragonfly "
                               "sugar) or 'type' (a registry topology)")
    scale = _get_str(raw, "scale", "topology", default="mini", choices=SCALES)
    try:
        spec = topology_registry.get(raw["type"], path="topology.type")
        assert isinstance(spec, TopologySpec)
        explicit = {k: v for k, v in raw.items() if k not in ("type", "scale")}
        explicit = spec.validate_params(explicit, "topology", kind="topology")
    except RegistryError as exc:
        raise ScenarioError(str(exc)) from None
    canonical: dict[str, Any] = {"type": spec.name, "scale": scale}
    canonical.update(
        {k: list(v) if isinstance(v, tuple) else v for k, v in explicit.items()}
    )
    return spec.name, scale, canonical, spec


def _get_routing(data: Mapping, key: str, path: str, topo_spec: TopologySpec,
                 default: str | None = None) -> str | None:
    """A routing name validated against the topology's capability list."""
    value = data.get(key, default)
    if value is None:
        return None
    where = f"{path}.{key}" if path else key
    if not isinstance(value, str):
        raise _err(where, f"expected a string, got {value!r}")
    avail = list(topo_spec.routings)
    if value in avail:
        return value
    if value in all_routing_names():
        raise _err(where, f"routing {value!r} is not available on topology "
                          f"{topo_spec.name!r}; choose from {avail}")
    raise _err(where, f"{value!r} is not one of {avail}")


def _get_placement(data: Mapping, key: str, path: str, topo_spec: TopologySpec,
                   default: str | None = None) -> str | None:
    """A placement name whose requirements the topology satisfies."""
    value = data.get(key, default)
    if value is None:
        return None
    where = f"{path}.{key}" if path else key
    if not isinstance(value, str):
        raise _err(where, f"expected a string, got {value!r}")
    avail = list(available_placements(topo_spec.name))
    if value in avail:
        return value
    if value in placement_registry.names():
        try:
            check_placement(value, topo_spec.name, path=where)
        except RegistryError as exc:
            raise ScenarioError(str(exc)) from None
    raise _err(where, f"{value!r} is not one of {avail}")

_JOB_KEYS = {
    "name": "job name",
    "app": "workload-catalog entry",
    "source": "coNCePTuaL file",
    "nranks": "rank count",
    "params": "parameter overrides",
    "arrival": "arrival time (s)",
    "routing": "per-job routing override",
    "placement": "per-job placement override",
}

_TRAFFIC_KEYS = {
    "name": "injector name",
    "pattern": "uniform|hotspot",
    "nranks": "rank count",
    "msg_bytes": "message size",
    "interval_s": "injection interval (s)",
    "iters": "rounds (0 = endless)",
    "hot_ranks": "hotspot targets",
    "arrival": "arrival time (s)",
    "routing": "per-injector routing override",
    "placement": "per-injector placement override",
}


def _parse_job(data: Any, i: int, scale: str, topo_spec: TopologySpec) -> JobEntry:
    path = f"jobs[{i}]"
    data = _require_mapping(data, path)
    _check_keys(data, _JOB_KEYS, path)
    app = _get_str(data, "app", path)
    source = _get_str(data, "source", path)
    if (app is None) == (source is None):
        raise _err(path, "set exactly one of 'app' (a workload-catalog name) "
                         "or 'source' (a coNCePTuaL file)")
    if app is not None:
        catalog = app_catalog(scale)
        if app not in catalog:
            raise _err(f"{path}.app",
                       f"unknown application {app!r}; the {scale!r} catalog has: "
                       f"{sorted(catalog)}")
    name = _get_str(data, "name", path, default=app or Path(source).stem)
    nranks = _get_int(data, "nranks", path, minimum=1)
    if source is not None and nranks is None:
        raise _err(f"{path}.nranks",
                   "required for 'source' jobs (DSL files carry no rank count)")
    params = data.get("params", {})
    params = dict(_require_mapping(params, f"{path}.params"))
    return JobEntry(
        name=name,
        app=app,
        source=source,
        nranks=nranks,
        params=params,
        arrival=_get_float(data, "arrival", path, default=0.0, minimum=0.0),
        routing=_get_routing(data, "routing", path, topo_spec),
        placement=_get_placement(data, "placement", path, topo_spec),
    )


def _parse_traffic(data: Any, i: int, topo_spec: TopologySpec) -> TrafficEntry:
    path = f"traffic[{i}]"
    data = _require_mapping(data, path)
    _check_keys(data, _TRAFFIC_KEYS, path)
    pattern = _get_str(data, "pattern", path, default="uniform",
                       choices=TRAFFIC_PATTERNS)
    interval_s = _get_float(data, "interval_s", path, default=1e-3, minimum=0.0)
    iters = _get_int(data, "iters", path, default=0, minimum=0)
    if iters == 0 and interval_s == 0.0:
        raise _err(f"{path}.interval_s",
                   "an endless injector (iters = 0) needs interval_s > 0, "
                   "or simulated time would never advance")
    return TrafficEntry(
        name=_get_str(data, "name", path, default=f"{pattern}-{i}"),
        pattern=pattern,
        # Both patterns need a peer to send to: 1-rank "uniform" has no
        # valid destination and a 1-rank hotspot degenerates to self-sends.
        nranks=_get_int(data, "nranks", path, default=8, minimum=2),
        msg_bytes=_get_int(data, "msg_bytes", path, default=10240, minimum=0),
        interval_s=interval_s,
        iters=iters,
        hot_ranks=_get_int(data, "hot_ranks", path, default=1, minimum=1),
        arrival=_get_float(data, "arrival", path, default=0.0, minimum=0.0),
        routing=_get_routing(data, "routing", path, topo_spec),
        placement=_get_placement(data, "placement", path, topo_spec),
    )


_FAULT_KEYS = {
    "name": "fault name",
    "kind": "|".join(FAULT_KINDS),
    "start": "onset time (s)",
    "duration": "how long the fault lasts (s)",
    "router": "router index (link-*: one end; router-down: the router)",
    "router_b": "other end of the link (link-* kinds)",
    "factor": "bandwidth multiplier (link-degrade) or service-time "
              "multiplier (storage-slow)",
}

_STORAGE_KEYS = {
    "servers": "storage servers on the last N terminal nodes",
}


def _parse_fault(data: Any, i: int) -> FaultEntry:
    path = f"faults[{i}]"
    data = _require_mapping(data, path)
    _check_keys(data, _FAULT_KEYS, path)
    kind = _get_str(data, "kind", path, choices=FAULT_KINDS)
    if kind is None:
        raise _err(f"{path}.kind", f"required; one of {list(FAULT_KINDS)}")
    start = _get_float(data, "start", path, minimum=0.0)
    if start is None:
        raise _err(f"{path}.start", "required (fault onset time in seconds)")
    duration = _get_float(data, "duration", path, minimum=0.0)
    if duration is None or duration == 0.0:
        raise _err(f"{path}.duration", "required and must be > 0 (seconds)")
    router = _get_int(data, "router", path, minimum=0)
    router_b = _get_int(data, "router_b", path, minimum=0)
    factor = _get_float(data, "factor", path, minimum=0.0)

    if kind in ("link-degrade", "link-down"):
        if router is None or router_b is None:
            raise _err(path, f"{kind!r} needs both 'router' and 'router_b' "
                             "(the two ends of the link)")
        if router == router_b:
            raise _err(f"{path}.router_b",
                       f"link endpoints must differ, got {router} twice")
    elif kind == "router-down":
        if router is None:
            raise _err(path, "'router-down' needs 'router' (the failed router)")
        if router_b is not None:
            raise _err(f"{path}.router_b",
                       "'router-down' takes a single 'router', not a link")
    else:  # storage-slow
        if router is not None or router_b is not None:
            raise _err(path, "'storage-slow' targets storage servers, not "
                             "routers; drop 'router'/'router_b'")

    if kind == "link-degrade":
        if factor is None:
            factor = 0.1
        if not 0.0 < factor < 1.0:
            raise _err(f"{path}.factor",
                       f"link-degrade factor must be in (0, 1) -- the "
                       f"remaining bandwidth fraction -- got {factor:g}")
    elif kind == "storage-slow":
        if factor is None:
            factor = 10.0
        if factor <= 1.0:
            raise _err(f"{path}.factor",
                       f"storage-slow factor must be > 1 -- the service-time "
                       f"multiplier -- got {factor:g}")
    elif factor is not None:
        raise _err(f"{path}.factor",
                   f"{kind!r} takes no 'factor' (the element is fully down)")

    default_name = f"{kind}-{i}"
    return FaultEntry(
        name=_get_str(data, "name", path, default=default_name),
        kind=kind,
        start=start,
        duration=duration,
        router=router,
        router_b=router_b,
        factor=factor,
    )


def _parse_storage(data: Mapping) -> StorageEntry | None:
    """Validate the optional ``[storage]`` table."""
    if "storage" not in data:
        return None
    raw = _require_mapping(data["storage"], "storage")
    _check_keys(raw, _STORAGE_KEYS, "storage")
    servers = _get_int(raw, "servers", "storage", default=1, minimum=1)
    return StorageEntry(servers=servers)


def _check_fault_capabilities(
    faults: list[FaultEntry],
    spec: ScenarioSpec,
    topo_spec: TopologySpec,
) -> None:
    """Down-kind faults require every effective routing to be adaptive.

    A failed link or router under a deterministic single-path policy
    (``min``, ``dor``, ``dmodk``) would be hit forever; the capability
    flag lives on the registry entry, so the rejection happens at parse
    time with the fault and the routing both named.
    """
    down = [f for f in faults if f.kind in DOWN_FAULT_KINDS]
    if not down:
        return
    effective: list[tuple[str, str]] = [("routing", spec.routing)]
    effective += [(f"jobs[{i}].routing", j.routing)
                  for i, j in enumerate(spec.jobs) if j.routing is not None]
    effective += [(f"traffic[{i}].routing", t.routing)
                  for i, t in enumerate(spec.traffic) if t.routing is not None]
    adaptive = [r for r in topo_spec.routings
                if routing_spec(topo_spec.name, r).adaptive]
    for where, rname in effective:
        if not routing_spec(topo_spec.name, rname).adaptive:
            raise _err(where,
                       f"fault {down[0].name!r} ({down[0].kind}) needs an "
                       f"adaptive routing to steer around the failed element, "
                       f"but {rname!r} is deterministic; choose from "
                       f"{adaptive or ['<none on ' + topo_spec.name + '>']}")


def parse_scenario(
    data: Mapping,
    name: str | None = None,
    base_dir: str | Path | None = None,
) -> ScenarioSpec:
    """Validate a plain mapping (parsed TOML/JSON) into a :class:`ScenarioSpec`.

    ``name`` is the fallback scenario name (usually the file stem);
    ``base_dir`` is where relative job ``source`` paths resolve (it
    falls back to a ``base_dir`` key in the data itself, which is how
    :meth:`ScenarioSpec.to_dict` keeps round-tripped specs runnable).
    """
    data = _require_mapping(data, "")
    _check_keys(data, _TOP_KEYS, "")
    if base_dir is None:
        base_dir = _get_str(data, "base_dir", "")
    network, scale, canonical, topo_spec = _parse_topology(data)

    jobs_raw = data.get("jobs", [])
    if not isinstance(jobs_raw, list):
        raise _err("jobs", f"expected an array of tables, got {type(jobs_raw).__name__}")
    jobs = [_parse_job(j, i, scale, topo_spec) for i, j in enumerate(jobs_raw)]
    if not jobs:
        raise _err("jobs", "a scenario needs at least one [[jobs]] entry")

    traffic_raw = data.get("traffic", [])
    if not isinstance(traffic_raw, list):
        raise _err("traffic",
                   f"expected an array of tables, got {type(traffic_raw).__name__}")
    traffic = [_parse_traffic(t, i, topo_spec) for i, t in enumerate(traffic_raw)]

    faults_raw = data.get("faults", [])
    if not isinstance(faults_raw, list):
        raise _err("faults",
                   f"expected an array of tables, got {type(faults_raw).__name__}")
    faults = [_parse_fault(f, i) for i, f in enumerate(faults_raw)]
    fault_folded: dict[str, str] = {}
    for i, entry in enumerate(faults):
        # Fault names become net.fault.<segment> telemetry keys, so the
        # same fold-collision rule as job names applies among faults.
        key = metric_segment(entry.name)
        other = fault_folded.setdefault(key, entry.name)
        if other != entry.name:
            raise _err(f"faults[{i}].name",
                       f"name {entry.name!r} collides with {other!r} on "
                       f"telemetry key segment {key!r}; rename one")

    seen: set[str] = set()
    folded: dict[str, str] = {}
    for section, entries in (("jobs", jobs), ("traffic", traffic)):
        for i, entry in enumerate(entries):
            if entry.name in seen:
                raise _err(f"{section}[{i}].name",
                           f"duplicate job/traffic name {entry.name!r}; "
                           "names must be unique so reports are unambiguous")
            seen.add(entry.name)
            # Distinct names may still fold onto one telemetry key
            # segment ('a.b' vs 'a_b'); that would silently merge their
            # mpi.job.* metrics, so reject it here with the key path.
            key = metric_segment(entry.name)
            other = folded.setdefault(key, entry.name)
            if other != entry.name:
                raise _err(f"{section}[{i}].name",
                           f"name {entry.name!r} collides with {other!r} on "
                           f"telemetry key segment {key!r} (dots/whitespace "
                           "fold to underscores); rename one")

    # Fabric-wide defaults come from the topology's registry entry
    # ("adp"/"rg" on dragonflies, exactly the historical defaults).
    spec = ScenarioSpec(
        name=_get_str(data, "name", "", default=name or "scenario"),
        network=network,
        scale=scale,
        routing=_get_routing(data, "routing", "", topo_spec,
                             default=topo_spec.default_routing),
        placement=_get_placement(data, "placement", "", topo_spec,
                                 default=topo_spec.default_placement),
        seed=_get_int(data, "seed", "", default=1, minimum=0),  # RNG wants uint64
        horizon=_get_float(data, "horizon", "", default=default_horizon(scale),
                           minimum=0.0),
        counter_window=_get_float(data, "counter_window", "", minimum=0.0),
        jobs=jobs,
        traffic=traffic,
        base_dir=Path(base_dir) if base_dir is not None else None,
        topology=canonical,
        metrics=_parse_metrics(data),
        engine=parse_engine_table(data["engine"]) if "engine" in data else None,
        env=_parse_env(data),
        faults=faults,
        storage=_parse_storage(data),
    )
    if spec.horizon <= 0:
        raise _err("horizon", f"must be > 0, got {spec.horizon}")
    if spec.storage is None:
        slow = next((f for f in spec.faults if f.kind == "storage-slow"), None)
        if slow is not None:
            raise _err("storage",
                       f"fault {slow.name!r} is 'storage-slow' but the "
                       "scenario has no [storage] table; add one "
                       "(e.g. servers = 2) so there are servers to slow down")
    _check_fault_capabilities(spec.faults, spec, topo_spec)
    if spec.env is not None and spec.env.window is not None \
            and spec.env.window > spec.horizon:
        raise _err("env.window",
                   f"one step window ({spec.env.window:g}s) exceeds the "
                   f"horizon ({spec.horizon:g}s)")
    return spec


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate a ``.toml`` or ``.json`` scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    suffix = path.suffix.lower()
    try:
        if suffix == ".toml":
            with open(path, "rb") as fh:
                data = tomllib.load(fh)
        elif suffix == ".json":
            with open(path, "rb") as fh:
                data = json.load(fh)
        else:
            raise ScenarioError(
                f"{path}: unsupported spec format {suffix!r}; use .toml or .json"
            )
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{path}: not valid {suffix[1:].upper()}: {exc}") from exc
    try:
        return parse_scenario(data, name=path.stem, base_dir=path.parent)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
