"""Telemetry wired through the stack: fabric, MPI, manager, scenario.

The acceptance-critical invariants live here: disabled families change
*nothing* about the simulation except the recorded metrics, the classic
``fabric.app_counter`` accessors stay intact, and the scenario runner's
per-job rows come out of the telemetry store identical to the historic
reduction.
"""

import json

import pytest

from repro.mpi.engine import JobSpec, SimMPI, job_key
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.scenario import load_scenario, parse_scenario, run_scenario
from repro.telemetry import RESULT_SCHEMA_VERSION, Telemetry
from repro.union.manager import Job, WorkloadManager
from repro.workloads.uniform_random import uniform_random


def storm(fabric: NetworkFabric, msgs: int = 2) -> None:
    n = fabric.topo.n_nodes
    for node in range(n):
        for _ in range(msgs):
            fabric.send_message(node % 2, node, (node + n // 2) % n, 4096)
    fabric.engine.run(until=1.0)
    assert fabric.in_flight() == 0


def test_fabric_registers_classic_instruments():
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=1), routing="min")
    t = fabric.telemetry
    assert t.get("net.router.app.bytes") is fabric.app_counter
    assert t.get("net.link.bytes") is fabric.link_loads
    storm(fabric)
    keys = set(t.snapshot("net.fabric.*"))
    assert keys == {"net.fabric.messages_sent", "net.fabric.messages_delivered",
                    "net.fabric.bytes_sent"}
    assert t.get("net.fabric.messages_sent").value == fabric.messages_sent > 0
    # Expanded windowed rows exist for routers that saw traffic.
    assert any(k.startswith("net.router.") and k.endswith(".bytes")
               for k in t.snapshot("net.router.*"))
    # Link rows: class totals always, per-link only where loaded.
    link_rows = t.snapshot("net.link.*")
    assert "net.link.class.local.bytes" in link_rows
    assert all(r["value"] > 0 for k, r in link_rows.items()
               if not k.startswith("net.link.class."))


def test_disabled_families_do_not_change_the_simulation():
    f_on = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=3), routing="adp")
    storm(f_on)
    f_off = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=3), routing="adp",
                          telemetry=Telemetry(disable=("net.*",)))
    storm(f_off)
    # Identical event trajectory and end state...
    assert f_off.engine.events_processed == f_on.engine.events_processed
    assert f_off.engine.now == f_on.engine.now
    assert f_off.messages_delivered == f_on.messages_delivered
    # ...but nothing recorded: the accessors read as empty.
    assert f_on.app_counter.total(range(f_on.topo.n_routers), 0) > 0
    assert f_off.app_counter.total(range(f_off.topo.n_routers), 0) == 0
    assert f_off.link_loads.summary()["local_total_bytes"] == 0
    assert f_off.app_record is None and f_off.load_record is None
    assert list(f_off.telemetry.rows()) == []


def test_queue_occupancy_opt_in():
    t = Telemetry(enable=("net.router.queue",))
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=2), routing="min",
                           telemetry=t)
    storm(fabric, msgs=4)
    rows = list(t.rows("net.router.*.port.*.queue"))
    assert rows, "queue occupancy enabled but produced no rows"
    assert all(r["agg"] == "max" for r in rows)
    depths = [v for r in rows for v in r["bins"].values()]
    assert all(d >= 1 for d in depths)
    assert max(depths) > 1  # a permutation storm must queue somewhere
    # Off by default: the default-session fabric records none of this.
    f2 = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=2), routing="min")
    assert f2.queue_record is None
    storm(f2, msgs=1)
    assert list(f2.telemetry.rows("net.router.*.queue")) == []


def pingpong(ctx):
    peer = 1 - ctx.rank
    for _ in range(3):
        if ctx.rank == 0:
            yield from ctx.send(peer, 1024)
            yield from ctx.recv(peer)
        else:
            yield from ctx.recv(peer)
            yield from ctx.send(peer, 1024)


def run_pingpong(telemetry=None):
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=5), routing="min",
                           telemetry=telemetry)
    mpi = SimMPI(fabric)
    mpi.add_job(JobSpec("pp", 2, pingpong, [0, 9]))
    mpi.run(until=1.0)
    return mpi


def test_simmpi_publishes_lifecycle_and_reductions():
    mpi = run_pingpong()
    t = mpi.telemetry
    base = job_key("pp")
    assert base == "mpi.job.pp"
    snap = t.snapshot(f"{base}.*")
    assert snap[f"{base}.launched_at"]["value"] == 0.0
    r = mpi.results()[0]
    # The gauge is stamped when the last rank finishes, not at the horizon.
    assert snap[f"{base}.finished_at"]["value"] == pytest.approx(
        max(s.finished_at for s in r.rank_stats)
    )
    assert 0 < snap[f"{base}.finished_at"]["value"] < 1.0
    assert snap[f"{base}.finished"]["value"] == 1
    assert snap[f"{base}.msgs_recvd"]["value"] == 6
    assert snap[f"{base}.avg_msg_latency"]["value"] == pytest.approx(r.avg_latency())
    assert snap[f"{base}.max_comm_time"]["value"] == pytest.approx(r.max_comm_time())
    assert snap[f"{base}.bytes_sent"]["value"] == r.total_bytes_sent()
    # Latency histograms are off by default.
    assert t.get(f"{base}.msg_latency") is None


def test_simmpi_latency_histogram_opt_in():
    t = Telemetry(enable=("mpi.job.msg_latency",))
    mpi = run_pingpong(telemetry=t)
    hist = t.get("mpi.job.pp.msg_latency")
    assert hist is not None
    r = mpi.results()[0]
    lats = r.all_latencies()
    assert hist.count == len(lats) == 6
    assert hist.sum == pytest.approx(sum(lats))
    assert hist.min == pytest.approx(min(lats))
    assert hist.max == pytest.approx(max(lats))


def test_job_key_sanitizes_names():
    assert job_key("a.b c", "x") == "mpi.job.a_b_c.x"


def test_manager_rerun_replaces_instruments_instead_of_crashing():
    mgr = WorkloadManager(Dragonfly1D.mini(), routing="min", placement="rn", seed=2)
    mgr.add_job(Job("ur", 4, program=uniform_random,
                    params={"iters": 1, "msg_bytes": 256, "interval_s": 1e-4, "seed": 2}))
    mgr.run(until=1.0)
    first_counter = mgr.fabric.app_counter
    # Managers are single-use; reset() is the supported re-run idiom and
    # keeps the shared telemetry session.
    mgr.reset().run(until=1.0)
    t = mgr.telemetry
    assert t.get("net.router.app.bytes") is mgr.fabric.app_counter
    assert t.get("net.router.app.bytes") is not first_counter
    # Observable gauges read the *new* fabric, not the dead one.
    assert t.get("net.fabric.messages_sent").value == mgr.fabric.messages_sent > 0


def test_manager_rerun_resets_latency_histograms():
    t = Telemetry(enable=("mpi.job.msg_latency",))
    mgr = WorkloadManager(Dragonfly1D.mini(), routing="min", placement="rn",
                          seed=2, telemetry=t)
    mgr.add_job(Job("ur", 4, program=uniform_random,
                    params={"iters": 2, "msg_bytes": 256, "interval_s": 1e-4, "seed": 2}))
    mgr.run(until=1.0)
    first = t.get(job_key("ur", "msg_latency")).count
    assert first > 0
    mgr.reset().run(until=1.0)
    # A relaunch gets a fresh histogram, not run 1's merged into run 2.
    assert t.get(job_key("ur", "msg_latency")).count == first


def test_batch_same_named_specs_from_different_dirs_rejected(tmp_path):
    from repro.scenario import ScenarioError, run_batch

    data = {k: v for k, v in SCENARIO.items() if k != "metrics"}
    paths = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        p = tmp_path / d / "x.json"
        p.write_text(json.dumps(data))
        paths.append(p)
    with pytest.raises(ScenarioError, match="both write"):
        run_batch(paths, metrics_dir=tmp_path / "m")
    # Without a metrics dir the same list is fine (no files to collide).
    assert not run_batch(paths).failures


def test_colliding_job_names_rejected_by_manager():
    mgr = WorkloadManager(Dragonfly1D.mini(), routing="min", placement="rn")
    for name in ("a.b", "a_b"):
        mgr.add_job(Job(name, 2, program=uniform_random,
                        params={"iters": 1, "msg_bytes": 64, "interval_s": 1e-4,
                                "seed": 1}))
    with pytest.raises(ValueError, match="collide on telemetry key"):
        mgr.run(until=0.01)


def test_colliding_job_names_rejected_by_spec():
    from repro.scenario import ScenarioError

    data = dict(SCENARIO)
    data = {k: v for k, v in data.items() if k != "metrics"}
    data["jobs"] = [
        {"name": "a.b", "app": "nn", "params": {"iters": 1}},
        {"name": "a_b", "app": "nn", "params": {"iters": 1}},
    ]
    with pytest.raises(ScenarioError, match="telemetry key segment"):
        parse_scenario(data)


def test_manager_publishes_placement_metrics():
    mgr = WorkloadManager(Dragonfly1D.mini(), routing="min", placement="rg", seed=1)
    mgr.add_job(Job("ur", 8, program=uniform_random,
                    params={"iters": 2, "msg_bytes": 512, "interval_s": 1e-4, "seed": 1}))
    outcome = mgr.run(until=1.0)
    t = mgr.telemetry
    assert mgr.fabric.telemetry is t and mgr.mpi.telemetry is t
    a = outcome.app("ur")
    base = job_key("ur")
    assert t.get(f"{base}.started").value == 1
    assert t.get(f"{base}.n_nodes").value == len(a.nodes)
    assert t.get(f"{base}.n_routers").value == len(a.routers)
    assert t.get(f"{base}.n_groups").value == len(a.groups) > 0
    assert t.get(f"{base}.background").value == 0


SCENARIO = {
    "name": "tele",
    "horizon": 0.01,
    "topology": {"network": "1d"},
    "placement": "rn",
    "jobs": [{"app": "nn", "params": {"iters": 2}}],
    "metrics": {"summary": True, "latency_histograms": True,
                "queue_occupancy": True},
}


def test_scenario_reduces_from_telemetry_store():
    spec = parse_scenario(dict(SCENARIO))
    result = run_scenario(spec)
    t = result.telemetry
    assert t is not None
    j = result.job("nn")
    base = job_key("nn")
    assert j.started and j.finished
    assert j.avg_latency == t.get(f"{base}.avg_msg_latency").value > 0
    assert j.messages == t.get(f"{base}.msgs_recvd").value > 0
    # The opt-in instruments ran without any Python written.
    assert t.get(f"{base}.msg_latency").count == j.messages
    assert any(True for _ in t.rows("net.router.*.queue"))
    # And the summary sink landed in the JSON document.
    doc = result.to_json_dict()
    assert doc["schema_version"] == RESULT_SCHEMA_VERSION
    assert doc["metrics"]["rows"] > 0
    assert f"{base}.msg_latency" in doc["metrics"]["metrics"]
    json.dumps(doc)  # JSON-able end to end


def test_scenario_jsonl_sink_and_filter(tmp_path):
    out = tmp_path / "m.jsonl"
    data = dict(SCENARIO)
    data["metrics"] = {"jsonl": str(out), "filter": ["mpi.job.*"]}
    result = run_scenario(parse_scenario(data))
    assert result.metrics is None  # summary not requested
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["scenario"] == "tele"
    keys = [json.loads(l)["key"] for l in lines[1:]]
    assert keys and all(k.startswith("mpi.job.nn.") for k in keys)


def test_scenario_without_metrics_table_has_no_metrics_key(tmp_path):
    data = {k: v for k, v in SCENARIO.items() if k != "metrics"}
    result = run_scenario(parse_scenario(data))
    doc = result.to_json_dict()
    assert doc["schema_version"] == RESULT_SCHEMA_VERSION
    assert "metrics" not in doc


def test_metrics_table_round_trips(tmp_path):
    spec = parse_scenario(dict(SCENARIO))
    again = parse_scenario(spec.to_dict())
    assert again.metrics == spec.metrics
    assert again.to_dict() == spec.to_dict()


def test_metrics_table_validation_errors():
    from repro.scenario import ScenarioError

    bad = dict(SCENARIO)
    bad["metrics"] = {"sumary": True}
    with pytest.raises(ScenarioError, match="metrics.sumary"):
        parse_scenario(bad)
    bad["metrics"] = {"filter": 3}
    with pytest.raises(ScenarioError, match="metrics.filter"):
        parse_scenario(bad)
    bad["metrics"] = {"queue_occupancy": "yes"}
    with pytest.raises(ScenarioError, match="true/false"):
        parse_scenario(bad)


def test_batch_metrics_dir(tmp_path):
    from repro.scenario import run_batch

    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    for name in ("one", "two"):
        data = {k: v for k, v in SCENARIO.items() if k != "metrics"}
        data["name"] = name
        (spec_dir / f"{name}.json").write_text(json.dumps(data))
    mdir = tmp_path / "metrics"
    batch = run_batch(spec_dir, metrics_dir=mdir, metrics_filter=["mpi.job.*"])
    assert not batch.failures
    files = sorted(p.name for p in mdir.iterdir())
    # Full spec filenames: a.toml and a.json must not share an output.
    assert files == ["one.json.metrics.jsonl", "two.json.metrics.jsonl"]
    for p in mdir.iterdir():
        lines = p.read_text().splitlines()
        assert len(lines) > 1
        assert all(json.loads(l)["key"].startswith("mpi.job.")
                   for l in lines[1:])


def test_instrumented_example_spec_validates():
    from pathlib import Path

    path = (Path(__file__).resolve().parents[2]
            / "examples" / "scenarios" / "instrumented_run.toml")
    spec = load_scenario(path)
    assert spec.metrics is not None
    assert spec.metrics.summary
    assert set(spec.metrics.enable_families()) == {
        "net.router.queue", "mpi.job.msg_latency",
    }
