"""Faulted scenarios end to end: interference, re-routing, skip paths.

The acceptance-grade property lives here: a fault-injected scenario
with adaptive routing completes end to end and its loaded latency
strictly exceeds the fault-free baseline under identical placements.
"""

import json

import pytest

from repro.scenario import oracle, parse_scenario
from repro.scenario.runner import run_scenario

BASE = {
    "seed": 3,
    "horizon": 0.004,
    "routing": "adp",
    "jobs": [{"app": "nn", "name": "nn0"}],
}

CONSERVATIVE = {"type": "conservative", "partitions": 2}


def _run(**overrides):
    data = dict(BASE)
    data.update(overrides)
    return run_scenario(parse_scenario(data, name="t"))


def _job_links(result):
    """Directly linked router pairs inside the job's placement."""
    routers = sorted(result.outcome.app("nn0").routers)
    topo = result.outcome.manager.topo
    return [(a, b) for a in routers for b in routers
            if b > a and b in topo.ports_to_router[a]]


def test_degraded_links_strictly_inflate_loaded_latency():
    baseline = _run()
    faults = [
        {"kind": "link-degrade", "start": 0.0, "duration": BASE["horizon"],
         "router": a, "router_b": b, "factor": 0.05}
        for a, b in _job_links(baseline)
    ]
    degraded = _run(faults=faults)
    # Identical placement: the fault plane must not perturb the draws.
    assert (degraded.outcome.app("nn0").nodes
            == baseline.outcome.app("nn0").nodes)
    assert degraded.job("nn0").started
    assert degraded.job("nn0").avg_latency > baseline.job("nn0").avg_latency
    assert degraded.job("nn0").max_latency > baseline.job("nn0").max_latency
    assert degraded.faults["transitions"] == 2 * len(faults)


def test_link_outage_is_rerouted_and_costs_latency():
    baseline = _run()
    a, b = _job_links(baseline)[0]
    cut = {"kind": "link-down", "start": 0.0, "duration": BASE["horizon"],
           "router": a, "router_b": b}
    faulted = _run(faults=[cut])
    assert faulted.faults["avoided_paths"] > 0
    assert faulted.faults["unavoidable_paths"] == 0
    assert faulted.job("nn0").avg_latency > baseline.job("nn0").avg_latency
    # Conservation survives the outage: detours deliver, never drop.
    fabric = faulted.outcome.fabric
    assert fabric.bytes_sent == sum(j.bytes_sent for j in faulted.jobs)


def test_faulted_runs_are_deterministic_and_engine_parity_holds():
    a, b = _job_links(_run())[0]
    faults = [
        {"kind": "link-down", "start": 0.001, "duration": 0.002,
         "router": a, "router_b": b},
        {"kind": "link-degrade", "start": 0.0, "duration": 0.004,
         "router": a, "router_b": b, "factor": 0.2},
    ]
    seq = _run(faults=faults).to_json_dict()
    again = _run(faults=faults).to_json_dict()
    assert json.dumps(seq, sort_keys=True) == json.dumps(again, sort_keys=True)
    con = _run(faults=faults, engine=CONSERVATIVE).to_json_dict()
    assert oracle.split(seq)[1] == oracle.split(con)[1]


def test_mid_run_fault_reverts_cleanly():
    baseline = _run()
    links = _job_links(baseline)
    faults = [
        {"kind": "link-degrade", "start": 0.0, "duration": 0.0005,
         "router": a, "router_b": b, "factor": 0.05}
        for a, b in links
    ]
    windowed = _run(faults=faults)
    assert windowed.faults["transitions"] == 2 * len(faults)
    # The fault window covers only the first eighth of the run, so the
    # penalty must be milder than a full-horizon degradation.
    full = _run(faults=[dict(f, duration=BASE["horizon"]) for f in faults])
    assert (baseline.job("nn0").avg_latency
            < windowed.job("nn0").avg_latency
            < full.job("nn0").avg_latency)


@pytest.mark.parametrize("engine", [None, CONSERVATIVE])
def test_arrival_failing_placement_mid_outage_names_the_fault(engine):
    data = {
        "seed": 5,
        "horizon": 0.006,
        "routing": "adp",
        "topology": {"type": "dragonfly1d", "n_groups": 2},
        "jobs": [{"app": "nn", "name": "first"},
                 {"app": "nn", "name": "second", "arrival": 0.002}],
    }
    if engine is not None:
        data["engine"] = dict(engine)
    # Sanity: with 32 nodes and 16-rank jobs, both fit fault-free.
    clean = run_scenario(parse_scenario(dict(data), name="t"))
    assert clean.job("second").started
    # Take down a router that is free when 'second' arrives: its two
    # masked nodes leave only 14 free, so placement must fail and the
    # skip reason must name the active fault.
    used = clean.outcome.app("first").routers
    victim = next(r for r in range(16) if r not in used)
    data["faults"] = [{"name": "blackout", "kind": "router-down",
                       "start": 0.001, "duration": 0.003, "router": victim}]
    faulted = run_scenario(parse_scenario(data, name="t"))
    second = faulted.job("second")
    assert not second.started
    assert "blackout" in second.skip_reason
    assert "active fault" in second.skip_reason
    assert faulted.job("first").started


def test_nodes_freed_during_outage_stay_masked_until_fault_off():
    data = {
        "seed": 5,
        "horizon": 0.008,
        "routing": "adp",
        "topology": {"type": "dragonfly1d", "n_groups": 2},
        "jobs": [{"app": "nn", "name": "first", "params": {"iters": 1}},
                 {"app": "nn", "name": "filler", "params": {"iters": 200}},
                 {"app": "nn", "name": "second", "arrival": 0.006}],
    }
    clean = run_scenario(parse_scenario(dict(data), name="t"))
    assert clean.job("first").finished
    assert not clean.job("filler").finished  # holds its nodes throughout
    assert clean.job("second").started  # first's freed nodes make room
    # Fail every router that hosted 'first' for the whole horizon: when
    # 'first' ends, its nodes must be absorbed into the faults' masks
    # instead of the free pool, so 'second' finds nothing to run on.
    victims = sorted(clean.outcome.app("first").routers)
    data["faults"] = [
        {"name": f"sink{r}", "kind": "router-down",
         "start": 0.0001, "duration": 0.0078, "router": r}
        for r in victims
    ]
    faulted = run_scenario(parse_scenario(data, name="t"))
    assert faulted.job("first").finished  # running jobs ride out the outage
    assert not faulted.job("second").started
    assert "sink" in faulted.job("second").skip_reason
