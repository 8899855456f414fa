"""Experiment runner: caching, result shape, sweeps."""

import numpy as np
import pytest

from repro.harness.configs import COMBOS, make_topology, default_horizon
from repro.harness.experiment import (
    ExperimentConfig,
    cell_spec,
    clear_cache,
    run_experiment,
)
from repro.harness.sweeps import fig8_series, latency_sweep, panel_stats, table6_loads, workloads_of


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_make_topology():
    assert make_topology("1d", "mini").n_nodes == 144
    assert make_topology("2d", "paper").n_nodes == 8448
    with pytest.raises(ValueError, match="unknown network"):
        make_topology("3d")
    with pytest.raises(ValueError, match="unknown scale"):
        make_topology("1d", "giant")


def test_partitions_without_an_engine_is_refused():
    # It would silently run the unpartitioned default, and cache under a
    # key distinct from the identical engine=None cell.
    with pytest.raises(ValueError, match="set engine"):
        ExperimentConfig(partitions=4)
    cfg = ExperimentConfig(engine="conservative", partitions=4)
    assert cfg.engine_table() == {"type": "conservative", "partitions": 4}


def test_combos_order():
    assert COMBOS == ("rg-min", "rr-min", "rn-min", "rg-adp", "rr-adp", "rn-adp")


def test_run_experiment_baseline():
    cfg = ExperimentConfig(network="1d", workload="baseline:nn", placement="rr", routing="min")
    res = run_experiment(cfg)
    assert set(res.apps) == {"nn"}
    a = res.app("nn")
    assert a.finished
    assert a.max_latency_box.maximum > 0
    assert a.max_comm_time > 0
    assert res.events > 0


def test_run_experiment_workload_has_all_apps():
    cfg = ExperimentConfig(network="1d", workload="workload2", placement="rn", routing="adp")
    res = run_experiment(cfg)
    assert set(res.apps) == {"cosmoflow", "alexnet", "lammps", "milc", "nn"}
    assert res.app("cosmoflow").ml
    assert not res.app("milc").ml


def test_cache_hit_returns_same_object():
    cfg = ExperimentConfig(network="1d", workload="baseline:nn")
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a is b
    clear_cache()
    c = run_experiment(cfg)
    assert c is not a


def test_results_deterministic_across_cache_clear():
    cfg = ExperimentConfig(network="1d", workload="baseline:lammps", seed=9)
    a = run_experiment(cfg)
    clear_cache()
    b = run_experiment(cfg)
    assert a.app("lammps").max_comm_time == b.app("lammps").max_comm_time
    assert a.app("lammps").max_latency_box == b.app("lammps").max_latency_box
    assert a.events == b.events


def test_router_series_shape():
    cfg = ExperimentConfig(network="1d", workload="baseline:nn")
    res = run_experiment(cfg)
    series = res.router_series[("nn", "nn")]
    expected_bins = int(np.ceil(cfg.resolved_horizon() / res.counter_window))
    assert len(series) == expected_bins
    assert series.sum() > 0


def test_cell_agrees_with_its_scenario_json():
    from repro.scenario import run_scenario

    cfg = ExperimentConfig(network="1d", workload="workload3", placement="rg", routing="adp")
    res = run_experiment(cfg)
    doc = run_scenario(cell_spec(cfg)).to_json_dict()
    assert doc["events"] == res.events
    assert doc["end_time"] == res.end_time
    assert doc["link_summary"] == res.link_summary
    jobs = {j["name"]: j for j in doc["jobs"]}
    assert set(jobs) == set(res.apps)
    for name, app in res.apps.items():
        assert jobs[name]["messages"] == app.messages
        assert jobs[name]["avg_latency"] == app.avg_latency
        assert jobs[name]["max_comm_time"] == app.max_comm_time


def test_every_sweep_cell_has_a_distinct_round_tripping_spec():
    from repro.harness.configs import NETWORKS
    from repro.scenario import parse_scenario
    from repro.service.cache import spec_digest
    from repro.workloads.catalog import PANEL_APPS, WORKLOADS

    # latency_sweep's default grid: every network x combo x (baselines + workloads).
    workloads = [f"baseline:{a}" for a in PANEL_APPS] + list(WORKLOADS)
    cells = [
        ExperimentConfig(network=n, workload=w, placement=c.split("-")[0],
                         routing=c.split("-")[1])
        for n in NETWORKS for c in COMBOS for w in workloads
    ]
    assert len(cells) == 2 * 6 * (5 + 3)
    digests = set()
    for cfg in cells:
        spec = cell_spec(cfg)
        assert parse_scenario(spec.to_dict()) == spec
        digests.add(spec_digest(spec))
    assert len(digests) == len(cells)


def test_config_helpers():
    cfg = ExperimentConfig(placement="rr", routing="adp")
    assert cfg.combo == "rr-adp"
    assert cfg.resolved_horizon() == default_horizon("mini")
    assert ExperimentConfig(horizon=0.01).resolved_horizon() == 0.01


def test_workloads_of():
    assert workloads_of("lammps") == ["workload1", "workload2"]
    assert workloads_of("nekbone") == ["workload3"]
    assert workloads_of("cosmoflow") == ["workload1", "workload2", "workload3"]


def test_small_sweep_and_panel():
    sweep = latency_sweep(
        networks=("1d",),
        combos=("rg-adp",),
        workloads=("workload3",),
        apps=("milc",),
    )
    assert ("1d", "rg-adp", "baseline:milc") in sweep
    assert ("1d", "rg-adp", "workload3") in sweep
    cell = panel_stats(sweep, "milc", "1d", "rg-adp")
    assert "baseline" in cell and "workload3" in cell
    assert cell["baseline"].nranks == 16


def test_fig8_series_structure():
    out = fig8_series(scale="mini", seed=1)
    assert set(out) == {"rr", "rg"}
    for placement in out.values():
        assert "alexnet" in placement
        assert all(isinstance(v, np.ndarray) for v in placement.values())


def test_table6_structure():
    out = table6_loads()
    assert set(out) == {"1d", "2d"}
    for summary in out.values():
        assert summary["local_total_bytes"] > 0
