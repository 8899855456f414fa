"""Cached experiment runner.

One :class:`ExperimentConfig` = one simulated system under one workload
with one placement-routing combination -- a single cell of the paper's
sweep.  :func:`cell_spec` turns a cell into a scenario spec, which
:func:`repro.scenario.runner.run_scenario` runs like any other; the
result is reduced to plain data (:class:`ExperimentResult`) and
memoized per process so Figure 7, Figure 9 and Table VI benches can
share the same runs instead of re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.harness.configs import default_horizon, topology_table
from repro.harness.metrics import BoxStats, boxplot_stats
from repro.registry import default_engine_info
from repro.workloads.catalog import WORKLOADS, app_catalog

if TYPE_CHECKING:
    from repro.scenario.runner import ScenarioResult
    from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep cell.

    ``workload`` is a Table III name (``workload1``..``workload3``) or
    ``baseline:<app>`` for a single application running alone.
    ``engine`` names a registered execution engine (``None`` keeps the
    default preset); ``partitions`` parameterizes a partitioned
    engine, so it needs ``engine`` set, and is part of the cache key
    like every other field.
    """

    network: str = "1d"  # any registry topology name or alias ("1d", "2d", "fattree", "torus", "slimfly")
    workload: str = "workload3"
    placement: str = "rg"
    routing: str = "adp"
    scale: str = "mini"
    seed: int = 1
    horizon: float | None = None
    engine: str | None = None
    partitions: int | None = None

    def __post_init__(self) -> None:
        if self.partitions is not None and self.engine is None:
            raise ValueError(
                f"partitions={self.partitions} without an engine would run "
                "the unpartitioned default; set engine (e.g. "
                "engine=\"conservative\") to run partitioned")

    def engine_table(self) -> dict | None:
        """The ``[engine]`` table of this cell's scenario spec."""
        if self.engine is None:
            return None
        table: dict = {"type": self.engine}
        if self.partitions is not None:
            table["partitions"] = self.partitions
        return table

    @property
    def combo(self) -> str:
        return f"{self.placement}-{self.routing}"

    def resolved_horizon(self) -> float:
        return self.horizon if self.horizon is not None else default_horizon(self.scale)


@dataclass
class AppStats:
    """Reduced per-application metrics of one run."""

    name: str
    ml: bool
    nranks: int
    finished: bool
    max_latency_box: BoxStats  # distribution over ranks of per-rank max latency
    avg_latency: float
    max_comm_time: float
    mean_comm_time: float
    messages: int
    bytes_sent: int
    groups: tuple[int, ...]
    routers: tuple[int, ...]


@dataclass
class ExperimentResult:
    """Everything the table/figure builders need, as plain data."""

    config: ExperimentConfig
    apps: dict[str, AppStats]
    end_time: float
    events: int
    link_summary: dict[str, float]
    counter_window: float
    # (serving_app, source_app) -> bytes-per-window series
    router_series: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    #: What ran: the engine table (or the default preset) plus
    #: ``Engine.describe()``; reports only, not part of the result.
    engine: dict[str, Any] = field(default_factory=dict, compare=False)

    def app(self, name: str) -> AppStats:
        return self.apps[name]


_CACHE: dict[ExperimentConfig, ExperimentResult] = {}


def clear_cache() -> None:
    _CACHE.clear()


def prime_cache(cfg: ExperimentConfig, result: ExperimentResult) -> None:
    """Seed the memo cache with an externally computed result.

    Used by the sweep fan-out: worker processes each run
    :func:`run_experiment` with their own (empty) cache, and the parent
    primes its cache with the returned results so every later in-process
    lookup -- ``panel_stats``, the figure builders -- hits.
    """
    _CACHE.setdefault(cfg, result)


def cell_spec(cfg: ExperimentConfig) -> ScenarioSpec:
    """The scenario spec one sweep cell runs (``ScenarioError`` for an
    unknown workload or application, or a policy the network lacks)."""
    # scenario.spec imports repro.harness.configs: import it late.
    from repro.scenario.spec import ScenarioError, parse_scenario

    if cfg.workload.startswith("baseline:"):
        apps = [cfg.workload.split(":", 1)[1]]
    elif cfg.workload in WORKLOADS:
        apps = WORKLOADS[cfg.workload].apps
    else:
        raise ScenarioError(
            f"unknown workload {cfg.workload!r}; expected one of "
            f"{sorted(WORKLOADS)} or baseline:<app>")
    data: dict[str, Any] = {
        "name": f"{cfg.workload}-{cfg.network}-{cfg.combo}",
        "topology": topology_table(cfg.network, cfg.scale),
        "routing": cfg.routing,
        "placement": cfg.placement,
        "seed": cfg.seed,
        "horizon": cfg.resolved_horizon(),
        "jobs": [{"app": app} for app in apps],
    }
    if (engine := cfg.engine_table()) is not None:
        data["engine"] = engine
    return parse_scenario(data)


def cell_result(cfg: ExperimentConfig, result: ScenarioResult) -> ExperimentResult:
    """Reduce one cell's scenario run to :class:`ExperimentResult`."""
    outcome = result.outcome
    catalog = app_catalog(cfg.scale)
    apps: dict[str, AppStats] = {}
    for a in outcome.apps:
        r = a.result
        apps[a.name] = AppStats(
            name=a.name,
            ml=catalog[a.name].ml,
            nranks=r.nranks,
            finished=r.finished,
            max_latency_box=boxplot_stats(r.max_latencies_per_rank()),
            avg_latency=r.avg_latency(),
            max_comm_time=r.max_comm_time(),
            mean_comm_time=r.mean_comm_time(),
            messages=sum(s.msgs_recvd for s in r.rank_stats),
            bytes_sent=r.total_bytes_sent(),
            groups=tuple(sorted(a.groups)),
            routers=tuple(sorted(a.routers)),
        )
    series: dict[tuple[str, str], np.ndarray] = {}
    for serving in outcome.apps:
        for source in outcome.apps:
            series[(serving.name, source.name)] = outcome.fabric.app_counter.series(
                serving.routers, source.app_id, result.horizon
            )
    return ExperimentResult(
        config=cfg,
        apps=apps,
        end_time=result.end_time,
        events=result.events,
        link_summary=result.link_summary,
        counter_window=outcome.manager.counter_window,
        router_series=series,
        engine=result.engine or default_engine_info(outcome.fabric.engine),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run (or fetch from cache) one sweep cell."""
    hit = _CACHE.get(cfg)
    if hit is not None:
        return hit
    # scenario.runner imports repro.harness.configs: import it late.
    from repro.scenario.runner import run_scenario

    result = cell_result(cfg, run_scenario(cell_spec(cfg)))
    _CACHE[cfg] = result
    return result
