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
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, ClassVar

from repro.harness.configs import NETWORKS, default_horizon
from repro.registry import (
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
from repro.registry.core import Param, key_path
from repro.registry.topologies import SCALE_PARAM
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
    if type(value) is not dict and not isinstance(value, Mapping):
        raise _err(path, f"expected a table/object, got {type(value).__name__}")
    return value


class _Layout:
    """One declaration, indexed once for :func:`_read` and :func:`entry_dict`."""

    def __init__(self, params: tuple[Param, ...]) -> None:
        self.by_name = {p.name: p for p in params}
        self.defaults = {p.name: p.default for p in params if not p.required}
        self.required = tuple(p.name for p in params if p.required)
        self.containers = tuple(k for k, v in self.defaults.items()
                                if isinstance(v, (dict, list)))
        self.whens = tuple(p for p in params if p.when is not None)
        self.emit = tuple((p.name, p.always, p.default, p.when,
                           _plain if p.kind in _CONTAINER_KINDS else None)
                          for p in params)


_CONTAINER_KINDS = ("str_list", "table", "tables", "name_or_table")


def _read(raw: Any, params: tuple[Param, ...], path: str) -> dict[str, Any]:
    """Validate one table against its declaration.

    Returns every declared key: the given value, checked and coerced by
    its :class:`Param`, or the default (a key given as JSON ``null``
    counts as absent).  Unknown keys fail first, then each given key,
    then missing required keys, then the ``when`` rules.
    """
    raw = _require_mapping(raw, path)
    layout = _LAYOUTS[id(params)]
    by_name = layout.by_name
    unknown = raw.keys() - by_name.keys()
    if unknown:
        key = sorted(unknown)[0]
        raise _err(key_path(path, key), f"unknown key {key!r}; expected one of: "
                                        f"{', '.join(sorted(by_name))}")
    out = dict(layout.defaults)
    try:
        for key, value in raw.items():
            if value is not None:
                out[key] = by_name[key].validate(value, path)
    except RegistryError as exc:
        raise ScenarioError(str(exc)) from None
    for key in layout.required:
        if key not in out:
            p = by_name[key]
            wanted = f"one of {list(p.choices)}" if p.choices else p.doc
            raise _err(key_path(path, key), f"required; {wanted}")
    for key in layout.containers:
        out[key] = out[key].copy()
    for p in layout.whens:
        key, wanted = p.when
        if out[key] != wanted and raw.get(p.name) is not None:
            raise _err(key_path(path, p.name), f"only applies when {key} = "
                                                f"{wanted!r}, not {out[key]!r}")
    return out


def entry_dict(entry: Any) -> dict[str, Any]:
    """Plain-data form of one declared entry (``type(entry).PARAMS``).

    Keys come in declaration order.  A key is written when it is
    ``always`` written, when its ``when`` rule holds, or when its value
    differs from the declared default; container values are copied
    (nested entries through this function).
    """
    values = entry.__dict__
    out: dict[str, Any] = {}
    for name, always, default, when, convert in _LAYOUTS[id(entry.PARAMS)].emit:
        value = values[name]
        if when is not None:
            if values[when[0]] != when[1]:
                continue
        elif not always and value == default:
            continue
        out[name] = value if convert is None else convert(value)
    return out


def _plain(value: Any) -> Any:
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return entry_dict(value) if hasattr(value, "PARAMS") else value


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

    #: The ``[[jobs]]`` keys; a ``None`` name defaults to the app name
    #: or the source file's stem.
    PARAMS: ClassVar[tuple[Param, ...]] = (
        Param("name", "str", "job name", default=None),
        Param("app", "str", "workload-catalog entry", default=None),
        Param("source", "str", "coNCePTuaL file", default=None),
        Param("nranks", "int", "rank count", default=None, minimum=1),
        Param("params", "table", "parameter overrides", default={}),
        Param("arrival", "float", "arrival time (s)", default=0.0, minimum=0.0),
        Param("routing", "str", "per-job routing override", default=None),
        Param("placement", "str", "per-job placement override", default=None),
    )


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

    #: The ``[[traffic]]`` keys; a ``None`` name defaults to
    #: ``<pattern>-<i>``.
    PARAMS: ClassVar[tuple[Param, ...]] = (
        Param("name", "str", "injector name", default=None),
        Param("pattern", "str", "uniform|hotspot", default="uniform",
              choices=TRAFFIC_PATTERNS, always=True),
        # Both patterns need a peer to send to: 1-rank "uniform" has no
        # valid destination and a 1-rank hotspot degenerates to self-sends.
        Param("nranks", "int", "rank count", default=8, minimum=2, always=True),
        Param("msg_bytes", "int", "message size", default=10240, minimum=0,
              always=True),
        Param("interval_s", "float", "injection interval (s)", default=1e-3,
              minimum=0.0, always=True),
        Param("iters", "int", "rounds (0 = endless)", default=0, minimum=0),
        Param("hot_ranks", "int", "hotspot targets", default=1, minimum=1,
              when=("pattern", "hotspot")),
        Param("arrival", "float", "arrival time (s)", default=0.0, minimum=0.0),
        Param("routing", "str", "per-injector routing override", default=None),
        Param("placement", "str", "per-injector placement override", default=None),
    )


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

    #: The ``[[faults]]`` keys; a ``None`` name defaults to
    #: ``<kind>-<i>`` and a ``None`` factor to the kind's own default.
    PARAMS: ClassVar[tuple[Param, ...]] = (
        Param("name", "str", "fault name", default=None),
        Param("kind", "str", "fault kind", choices=FAULT_KINDS),
        Param("start", "float", "onset time (s)", minimum=0.0),
        Param("duration", "float", "how long the fault lasts (s)",
              minimum=0.0, exclusive=True),
        Param("router", "int", "router index (link-*: one end; "
                               "router-down: the router)", default=None, minimum=0),
        Param("router_b", "int", "other end of the link (link-* kinds)",
              default=None, minimum=0),
        Param("factor", "float", "bandwidth multiplier (link-degrade) or "
                                 "service-time multiplier (storage-slow)",
              default=None, minimum=0.0),
    )


@dataclass
class StorageEntry:
    """The ``[storage]`` table: burst-buffer servers on the fabric.

    ``servers = N`` attaches a storage server to each of the last ``N``
    terminal nodes (exactly what ``union-sim simulate
    --storage-servers`` does).  Needed by ``storage-slow`` faults,
    which have nothing to slow down otherwise.
    """

    servers: int = 1

    PARAMS: ClassVar[tuple[Param, ...]] = (
        Param("servers", "int", "storage servers on the last N terminal nodes",
              default=1, minimum=1, always=True),
    )


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

    PARAMS: ClassVar[tuple[Param, ...]] = (
        Param("jsonl", "str", "metric-row JSONL output path", default=None),
        Param("filter", "str_list", "export key glob(s)", default=[]),
        Param("summary", "bool", "embed a metrics summary in the result JSON",
              default=False),
        Param("queue_occupancy", "bool", "per-port queue-depth series",
              default=False),
        Param("latency_histograms", "bool", "per-job message-latency histograms",
              default=False),
    )

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
        return replace(self, jsonl=jsonl if jsonl is not None else self.jsonl,
                       filter=list(filter) if filter else list(self.filter))


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

    PARAMS: ClassVar[tuple[Param, ...]] = (
        Param("policy", "name_or_table", "control policy (name or {type = ...} table)",
              default={"type": "scripted"}),
        Param("window", "float", "seconds per env step", default=None,
              minimum=0.0, exclusive=True),
        Param("reward", "str", "reward signal", default="avg_latency",
              choices=ENV_REWARDS),
    )


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

    #: The top-level keys.  ``None`` defaults are resolved against the
    #: topology: the name from the file stem, routing and placement from
    #: the topology's registry entry, the horizon from the scale.
    PARAMS: ClassVar[tuple[Param, ...]] = (
        Param("name", "str", "scenario name", default=None, always=True),
        Param("topology", "table", "[topology] table", default={}, always=True),
        Param("routing", "str", "fabric-wide routing", default=None, always=True),
        Param("placement", "str", "fabric-wide placement", default=None, always=True),
        # The master seed feeds a uint64 RNG.
        Param("seed", "int", "master seed", default=1, minimum=0,
              maximum=2**64 - 1, always=True),
        Param("horizon", "float", "simulation horizon (s)", default=None,
              minimum=0.0, exclusive=True, always=True),
        Param("jobs", "tables", "[[jobs]] entries", default=[], always=True),
        Param("counter_window", "float", "router counter window (s)", default=None,
              minimum=0.0, exclusive=True),
        Param("traffic", "tables", "[[traffic]] entries", default=[]),
        Param("metrics", "table", "[metrics] telemetry table", default=None),
        Param("engine", "table", "[engine] execution-engine table", default=None),
        Param("env", "table", "[env] control-surface table", default=None),
        Param("faults", "tables", "[[faults]] entries", default=[]),
        Param("storage", "table", "[storage] burst-buffer table", default=None),
        Param("base_dir", "str", "directory for relative job sources", default=None),
    )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form that round-trips through :func:`parse_scenario`."""
        out = entry_dict(self)
        if self.topology is None:
            # The legacy sugar round-trips as written.
            out["topology"] = {"network": self.network, "scale": self.scale}
        if self.base_dir is not None:
            # Keep relative job sources resolvable after a round trip.
            out["base_dir"] = str(self.base_dir)
        return out


#: The ``[topology]`` table's own keys: ``network`` is the legacy
#: dragonfly sugar, ``type`` the registry form, whose further keys are
#: the named topology's typed parameters.
TOPOLOGY_PARAMS = (
    Param("network", "str", "legacy dragonfly sugar", default="1d",
          choices=NETWORKS),
    SCALE_PARAM,
    Param("type", "str", "registry topology", default=None),
)

#: Every declared scenario table by key-path prefix ("" is the top
#: level); ``scripts/check_docs.py`` holds docs/scenarios.md's key
#: tables to it.
SCENARIO_TABLES: dict[str, tuple[Param, ...]] = {
    "": ScenarioSpec.PARAMS,
    "topology": TOPOLOGY_PARAMS,
    "jobs": JobEntry.PARAMS,
    "traffic": TrafficEntry.PARAMS,
    "faults": FaultEntry.PARAMS,
    "storage": StorageEntry.PARAMS,
    "metrics": MetricsEntry.PARAMS,
    "env": EnvEntry.PARAMS,
}

#: Each declared table's layout, by the id of its (module-lifetime) tuple.
_LAYOUTS = {id(params): _Layout(params) for params in SCENARIO_TABLES.values()}


def _component_table(registry: Any, raw: Any, path: str) -> dict[str, Any]:
    """Validate a ``{type = name, ...params}`` table against a registry
    family; returns the canonical sparse table (the canonical name plus
    only the given parameters, typed-validated)."""
    try:
        spec, params = registry.split_table(_require_mapping(raw, path), path)
        params = spec.validate_params(params, path, kind=registry.kind)
    except RegistryError as exc:
        raise ScenarioError(str(exc)) from None
    return {"type": spec.name, **params}


def parse_policy_table(raw: Any, path: str = "policy") -> dict[str, Any]:
    """Validate a policy name or table against the policy registry.

    Returns the canonical sparse table (``{"type": name, ...params}``),
    mirroring :func:`parse_engine_table` for the ``policy`` family; also
    the validator behind ``union-sim env --policy``.
    """
    return _component_table(policy_registry,
                            {"type": raw} if isinstance(raw, str) else raw, path)


def parse_env_table(raw: Mapping, horizon: float) -> EnvEntry:
    """Validate one ``[env]`` table of a scenario running to ``horizon``
    (also ``SimulationEnv``'s overrides, merged over the spec's own table)."""
    env = EnvEntry(**_read(raw, EnvEntry.PARAMS, "env"))
    env.policy = parse_policy_table(env.policy, path="env.policy")
    if env.window is not None and env.window > horizon:
        raise _err("env.window",
                   f"one step window ({env.window:g}s) exceeds the "
                   f"horizon ({horizon:g}s)")
    return env


def parse_engine_table(raw: Mapping) -> dict[str, Any]:
    """Validate one ``[engine]`` table against the engine registry.

    Returns the canonical sparse table (engine name plus only the
    explicitly given parameters, typed-validated); cross-checks that
    need the live topology (partition counts vs. group structure, the
    lookahead ceiling) happen when the run builds its engine.  Also the
    validator behind the CLI/batch ``--engine`` overrides.
    """
    return _component_table(engine_registry, raw, "engine")


def _parse_topology(raw: Mapping) -> tuple[str, str, dict[str, Any] | None, TopologySpec]:
    """Validate the ``[topology]`` table.

    Two forms: the legacy dragonfly sugar ``{network = "1d", scale =
    "mini"}`` (parsed exactly as it always was) and the explicit
    registry form ``{type = "fattree", k = 8}`` -- any registered
    topology name with an optional ``scale`` preset plus typed
    parameter overrides.  Returns ``(network, scale, canonical,
    topo_spec)`` where ``canonical`` is ``None`` for the sugar form.
    """
    if "type" not in raw:
        sugar = _read(raw, TOPOLOGY_PARAMS, "topology")
        network = sugar["network"]
        return network, sugar["scale"], None, topology_registry.get(network)
    if "network" in raw:
        raise _err("topology", "set exactly one of 'network' (legacy dragonfly "
                               "sugar) or 'type' (a registry topology)")
    scale = _read({"scale": raw.get("scale")}, TOPOLOGY_PARAMS, "topology")["scale"]
    table = _component_table(
        topology_registry, {k: v for k, v in raw.items() if k != "scale"}, "topology")
    canonical: dict[str, Any] = {"type": table.pop("type"), "scale": scale}
    canonical.update({k: list(v) if isinstance(v, tuple) else v for k, v in table.items()})
    return canonical["type"], scale, canonical, topology_registry.get(canonical["type"])


def _check_policies(values: dict[str, Any], path: str, topo_spec: TopologySpec) -> None:
    """A read table's ``routing``/``placement`` against the topology's
    capability lists (``None`` keeps the fabric-wide choice)."""
    routing = values["routing"]
    if routing is not None and routing not in topo_spec.routings:
        avail = list(topo_spec.routings)
        if routing in all_routing_names():
            raise _err(key_path(path, "routing"),
                       f"routing {routing!r} is not available on topology "
                       f"{topo_spec.name!r}; choose from {avail}")
        raise _err(key_path(path, "routing"), f"{routing!r} is not one of {avail}")
    placement = values["placement"]
    if placement is not None:
        avail = list(available_placements(topo_spec.name))
        if placement in avail:
            return
        where = key_path(path, "placement")
        if placement in placement_registry.names():
            try:
                check_placement(placement, topo_spec.name, path=where)
            except RegistryError as exc:
                raise ScenarioError(str(exc)) from None
        raise _err(where, f"{placement!r} is not one of {avail}")


def _parse_job(raw: Any, i: int, scale: str, topo_spec: TopologySpec) -> JobEntry:
    path = f"jobs[{i}]"
    job = _read(raw, JobEntry.PARAMS, path)
    app, source = job["app"], job["source"]
    if (app is None) == (source is None):
        raise _err(path, "set exactly one of 'app' (a workload-catalog name) "
                         "or 'source' (a coNCePTuaL file)")
    if app is not None:
        catalog = app_catalog(scale)
        if app not in catalog:
            raise _err(f"{path}.app",
                       f"unknown application {app!r}; the {scale!r} catalog has: "
                       f"{sorted(catalog)}")
    elif job["nranks"] is None:
        raise _err(f"{path}.nranks",
                   "required for 'source' jobs (DSL files carry no rank count)")
    if job["name"] is None:
        job["name"] = app or Path(source).stem
    _check_policies(job, path, topo_spec)
    return JobEntry(**job)


def _parse_traffic(raw: Any, i: int, topo_spec: TopologySpec) -> TrafficEntry:
    path = f"traffic[{i}]"
    traffic = _read(raw, TrafficEntry.PARAMS, path)
    if traffic["iters"] == 0 and traffic["interval_s"] == 0.0:
        raise _err(f"{path}.interval_s",
                   "an endless injector (iters = 0) needs interval_s > 0, "
                   "or simulated time would never advance")
    if traffic["name"] is None:
        traffic["name"] = f"{traffic['pattern']}-{i}"
    _check_policies(traffic, path, topo_spec)
    return TrafficEntry(**traffic)


def _parse_fault(raw: Any, i: int) -> FaultEntry:
    path = f"faults[{i}]"
    fault = _read(raw, FaultEntry.PARAMS, path)
    kind, router, router_b = fault["kind"], fault["router"], fault["router_b"]
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
    elif router is not None or router_b is not None:  # storage-slow
        raise _err(path, "'storage-slow' targets storage servers, not "
                         "routers; drop 'router'/'router_b'")

    factor = fault["factor"]
    if kind == "link-degrade":
        factor = fault["factor"] = 0.1 if factor is None else factor
        if not 0.0 < factor < 1.0:
            raise _err(f"{path}.factor",
                       f"link-degrade factor must be in (0, 1) -- the "
                       f"remaining bandwidth fraction -- got {factor:g}")
    elif kind == "storage-slow":
        factor = fault["factor"] = 10.0 if factor is None else factor
        if factor <= 1.0:
            raise _err(f"{path}.factor",
                       f"storage-slow factor must be > 1 -- the service-time "
                       f"multiplier -- got {factor:g}")
    elif factor is not None:
        raise _err(f"{path}.factor",
                   f"{kind!r} takes no 'factor' (the element is fully down)")
    if fault["name"] is None:
        fault["name"] = f"{kind}-{i}"
    return FaultEntry(**fault)


def _check_fault_capabilities(spec: ScenarioSpec, topo_spec: TopologySpec) -> None:
    """Down-kind faults require every effective routing to be adaptive.

    A failed link or router under a deterministic single-path policy
    (``min``, ``dor``, ``dmodk``) would be hit forever; the capability
    flag lives on the registry entry, so the rejection happens at parse
    time with the fault and the routing both named.
    """
    down = [f for f in spec.faults if f.kind in DOWN_FAULT_KINDS]
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


def _entry(raw: Any, cls: type, path: str) -> Any:
    """An optional table read into its entry class (``None`` if absent)."""
    return None if raw is None else cls(**_read(raw, cls.PARAMS, path))


def _check_names(sections: tuple[tuple[str, list], ...], unique: bool) -> None:
    """Names become telemetry key segments, so they must not collide
    once folded (``a.b`` and ``a b`` both become ``a_b``); ``unique``
    also refuses exact duplicates, which reports could not tell apart."""
    folded: dict[str, str] = {}
    for section, entries in sections:
        for i, entry in enumerate(entries):
            key = metric_segment(entry.name)
            other = folded.get(key)
            if other is None:
                folded[key] = entry.name
            elif other != entry.name:
                raise _err(f"{section}[{i}].name",
                           f"name {entry.name!r} collides with {other!r} on "
                           f"telemetry key segment {key!r}; rename one")
            elif unique:
                raise _err(f"{section}[{i}].name",
                           f"duplicate job/traffic name {entry.name!r}; "
                           "names must be unique so reports are unambiguous")


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
    top = _read(data, ScenarioSpec.PARAMS, "")
    if base_dir is None:
        base_dir = top["base_dir"]
    network, scale, canonical, topo_spec = _parse_topology(top["topology"])
    jobs = [_parse_job(j, i, scale, topo_spec) for i, j in enumerate(top["jobs"])]
    if not jobs:
        raise _err("jobs", "a scenario needs at least one [[jobs]] entry")
    traffic = [_parse_traffic(t, i, topo_spec) for i, t in enumerate(top["traffic"])]
    faults = [_parse_fault(f, i) for i, f in enumerate(top["faults"])]
    # Names become mpi.job.<segment> / net.fault.<segment> telemetry keys.
    _check_names((("faults", faults),), unique=False)
    _check_names((("jobs", jobs), ("traffic", traffic)), unique=True)

    # Fabric-wide defaults come from the topology's registry entry
    # ("adp"/"rg" on dragonflies, exactly the historical defaults).
    _check_policies(top, "", topo_spec)
    horizon = default_horizon(scale) if top["horizon"] is None else top["horizon"]
    env = None if top["env"] is None else parse_env_table(top["env"], horizon)
    spec = ScenarioSpec(
        name=(name or "scenario") if top["name"] is None else top["name"],
        network=network,
        scale=scale,
        routing=top["routing"] or topo_spec.default_routing,
        placement=top["placement"] or topo_spec.default_placement,
        seed=top["seed"],
        horizon=horizon,
        counter_window=top["counter_window"],
        jobs=jobs,
        traffic=traffic,
        base_dir=Path(base_dir) if base_dir is not None else None,
        topology=canonical,
        metrics=_entry(top["metrics"], MetricsEntry, "metrics"),
        engine=None if top["engine"] is None else parse_engine_table(top["engine"]),
        env=env,
        faults=faults,
        storage=_entry(top["storage"], StorageEntry, "storage"),
    )
    if spec.storage is None:
        slow = next((f for f in spec.faults if f.kind == "storage-slow"), None)
        if slow is not None:
            raise _err("storage",
                       f"fault {slow.name!r} is 'storage-slow' but the "
                       "scenario has no [storage] table; add one "
                       "(e.g. servers = 2) so there are servers to slow down")
    _check_fault_capabilities(spec, topo_spec)
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
