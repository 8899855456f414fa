"""The full network/MPI stack on the partitioned conservative engine.

The headline guarantee: a partitioned conservative run commits the
identical event sequence as a sequential run -- same per-job metrics,
same link loads, same event counts, bit for bit -- while the lookahead
contract is *enforced* (not assumed) on every cross-partition event.
These tests drive the real stack (fabric + SimMPI + manager + scenario)
on topology-aware plans across every fabric family.
"""

import pytest

from repro.mpi.engine import JobSpec, SimMPI
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.parallel import conservative_engine
from repro.pdes.sequential import SequentialEngine
from repro.scenario import oracle, parse_scenario, run_scenario
from repro.union.manager import Job, WorkloadManager
from repro.workloads.nearest_neighbor import nearest_neighbor
from repro.workloads.uniform_random import uniform_random


def _run_stack(engine):
    fabric = NetworkFabric(
        Dragonfly1D.mini(), NetworkConfig(seed=9), routing="adp", engine=engine
    )
    mpi = SimMPI(fabric)
    mpi.add_job(JobSpec(
        "nn", 8, nearest_neighbor, list(range(8)),
        {"dims": (2, 2, 2), "iters": 3, "msg_bytes": 32768},
    ))
    mpi.add_job(JobSpec(
        "ur", 8, uniform_random, list(range(64, 72)),
        {"iters": 5, "msg_bytes": 10240, "interval_s": 1e-5},
    ))
    mpi.run(until=5.0)
    return fabric, mpi


def _fingerprint(fabric, mpi):
    out = {
        "events": fabric.engine.events_processed,
        "msgs": fabric.messages_delivered,
        "bytes": fabric.bytes_sent,
        "link_summary": fabric.link_loads.summary(),
    }
    for res in mpi.results():
        assert res.finished
        out[res.name] = (
            res.max_comm_time(),
            res.avg_latency(),
            sorted(res.all_latencies()),
            res.event_counts(),
        )
    return out


@pytest.mark.parametrize("partitions", [1, 3, 9])
def test_partitioned_stack_bit_identical_to_sequential(partitions):
    ref = _fingerprint(*_run_stack(SequentialEngine()))
    eng = conservative_engine(
        Dragonfly1D.mini(), NetworkConfig(seed=9), partitions=partitions
    )
    got = _fingerprint(*_run_stack(eng))
    assert got == ref
    assert eng.windows_executed > 1
    assert sum(eng.committed_by_partition) == eng.events_processed


def test_partitioned_stack_spreads_commits_across_partitions():
    eng = conservative_engine(
        Dragonfly1D.mini(), NetworkConfig(seed=9), partitions=3
    )
    fabric = NetworkFabric(
        Dragonfly1D.mini(), NetworkConfig(seed=9), routing="adp", engine=eng
    )
    # A permutation storm touches every node, so every partition commits.
    n = fabric.topo.n_nodes
    for node in range(n):
        fabric.send_message(0, node, (node + n // 2) % n, 1 << 14)
    fabric.engine.run(until=1.0)
    assert fabric.in_flight() == 0
    assert all(c > 0 for c in eng.committed_by_partition)


def test_manager_resolves_engine_names_and_tables():
    def outcome(engine):
        mgr = WorkloadManager(
            Dragonfly1D.mini(), routing="adp", placement="rg", seed=4,
            engine=engine,
        )
        mgr.add_job(Job("nn", 8, program=nearest_neighbor,
                        params={"dims": (2, 2, 2), "iters": 2, "msg_bytes": 8192}))
        out = mgr.run(until=1.0)
        res = out.app("nn").result
        return res.avg_latency(), res.max_comm_time(), out.fabric.engine.events_processed

    ref = outcome(None)
    assert outcome("sequential") == ref
    assert outcome({"type": "conservative", "partitions": 3}) == ref
    assert outcome("conservative") == ref  # default partitions


def test_manager_rejects_bad_engine_config_before_simulating():
    from repro.registry import RegistryError

    mgr = WorkloadManager(
        Dragonfly1D.mini(), routing="adp", placement="rg",
        engine={"type": "conservative", "partitions": 12},
    )
    mgr.add_job(Job("nn", 8, program=nearest_neighbor,
                    params={"dims": (2, 2, 2), "iters": 1, "msg_bytes": 1024}))
    with pytest.raises(RegistryError, match="only 9 groups"):
        mgr.run(until=1.0)
    assert mgr.fabric is None  # failed before any LP existed


def test_conservative_telemetry_instruments_published():
    mgr = WorkloadManager(
        Dragonfly1D.mini(), routing="adp", placement="rg", seed=4,
        engine={"type": "conservative", "partitions": 3},
    )
    mgr.add_job(Job("nn", 8, program=nearest_neighbor,
                    params={"dims": (2, 2, 2), "iters": 2, "msg_bytes": 8192}))
    mgr.run(until=1.0)
    t = mgr.telemetry
    eng = mgr.fabric.engine
    assert t.value("pdes.conservative.partitions") == 3
    assert t.value("pdes.conservative.window_width") == pytest.approx(eng.lookahead)
    assert t.value("pdes.conservative.windows") == eng.windows_executed > 0
    assert t.value("pdes.conservative.max_window_events") == eng.max_window_events
    committed = [
        t.value(f"pdes.conservative.partition.{p}.committed") for p in range(3)
    ]
    assert committed == eng.committed_by_partition
    assert sum(committed) == eng.events_processed


def test_storage_servers_co_locate_with_their_node_partition():
    from repro.mpi.types import Wait
    from repro.storage import IORead, IOWrite, StorageSystem

    def run(engine):
        fabric = NetworkFabric(
            Dragonfly1D.mini(), NetworkConfig(seed=5), routing="min", engine=engine
        )
        mpi = SimMPI(fabric)
        topo = fabric.topo
        storage = StorageSystem(mpi, [topo.n_nodes - 1, topo.n_nodes - 2])

        def prog(ctx):
            for k in range(3):
                req = yield IOWrite(storage, server=k % 2, nbytes=1 << 16)
                yield Wait(req)
                req = yield IORead(storage, server=k % 2, nbytes=1 << 15)
                yield Wait(req)

        mpi.add_job(JobSpec("io", 4, prog, [0, 1, 2, 3]))
        mpi.run(until=5.0)
        st = storage.app_stats(0)
        return st.ops, st.bytes_read, st.bytes_written, st.mean_latency()

    ref = run(SequentialEngine())
    eng = conservative_engine(Dragonfly1D.mini(), NetworkConfig(seed=5), partitions=9)
    assert run(eng) == ref


def test_scenario_golden_identical_modulo_engine_key():
    """The acceptance-criterion golden test: a dragonfly scenario under
    ``engine = "conservative"`` produces scenario JSON bit-identical to
    the sequential run, modulo the new ``engine`` key."""
    base = {
        "name": "golden",
        "topology": {"network": "1d", "scale": "mini"},
        "seed": 7,
        "horizon": 0.004,
        "jobs": [
            {"app": "milc", "nranks": 16},
            {"app": "alexnet", "nranks": 16, "arrival": 0.001},
        ],
        "traffic": [
            {"pattern": "uniform", "nranks": 8, "msg_bytes": 4096,
             "interval_s": 1e-4},
        ],
    }
    _, seq = oracle.split(run_scenario(parse_scenario(
        dict(base, engine={"type": "sequential"}))).to_json_dict())
    con_spec = dict(base)
    con_spec["engine"] = {"type": "conservative", "partitions": 3}
    engine, con = oracle.split(
        run_scenario(parse_scenario(con_spec)).to_json_dict())
    assert con == seq
    assert engine["type"] == "conservative"
    assert engine["partitions"] == 3
    assert engine["scheme"] == "group"
    assert engine["windows"] > 1
    assert engine["lookahead"] > 0
