"""``repro.parallel.mp``: true multi-process partitioned execution.

The headline guarantee is the same as the in-process conservative
engine's, but across real OS processes: an ``mp-conservative`` run
commits the identical event sequence as a sequential run -- same
per-job metrics, same link loads, same event counts, bit for bit --
with cross-partition events exchanged only at YAWNS window boundaries.
Models that cannot be distributed fall back to single-process
execution with a user-facing reason, and the fallback path is held to
the same parity bar.

Parity tests here go through :class:`~repro.union.manager.
WorkloadManager` on purpose: only a session build extracts the model
recipe that lets the engine distribute, and every distributed test
asserts ``execution_mode == "distributed"`` so a silent fallback can
never make the parity check vacuous.
"""

import pytest

from repro.mpi.engine import JobSpec, SimMPI
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.parallel import mp_conservative_engine
from repro.parallel.partition import PartitionError
from repro.registry import RegistryError, build_engine
from repro.scenario import oracle, parse_scenario, run_scenario
from repro.union.manager import Job, WorkloadManager
from repro.workloads.nearest_neighbor import nearest_neighbor
from repro.workloads.uniform_random import uniform_random

# Random-node placement scatters ranks across dragonfly groups, so the
# workload genuinely crosses partitions (rg would pack one group).
def _manager(engine):
    mgr = WorkloadManager(
        Dragonfly1D.mini(), routing="adp", placement="rn", seed=4,
        engine=engine,
    )
    mgr.add_job(Job("nn", 8, program=nearest_neighbor,
                    params={"dims": (2, 2, 2), "iters": 2, "msg_bytes": 8192}))
    mgr.add_job(Job("ur", 8, program=uniform_random,
                    params={"iters": 3, "msg_bytes": 4096}))
    return mgr


def _fingerprint(out):
    jobs = []
    for name in ("nn", "ur"):
        res = out.app(name).result
        jobs.append((name, res.max_comm_time(), res.avg_latency(),
                     sorted(res.all_latencies()), res.event_counts()))
    f = out.fabric
    return (tuple(jobs), f.engine.events_processed, f.messages_delivered,
            f.bytes_sent, f.link_loads.summary())


@pytest.fixture(scope="module")
def sequential_ref():
    return _fingerprint(_manager("sequential").run(until=1.0))


@pytest.mark.parametrize("partitions", [2, 3])
def test_inline_backend_bit_identical(sequential_ref, partitions):
    mgr = _manager({"type": "mp-conservative", "partitions": partitions,
                    "backend": "inline"})
    out = mgr.run(until=1.0)
    eng = out.fabric.engine
    assert eng.execution_mode == "distributed"
    assert eng.fallback_reason is None
    assert eng.windows_executed > 1
    assert _fingerprint(out) == sequential_ref


def test_inline_backend_spreads_commits_across_partitions():
    mgr = _manager({"type": "mp-conservative", "partitions": 3,
                    "backend": "inline"})
    out = mgr.run(until=1.0)
    eng = out.fabric.engine
    assert eng.execution_mode == "distributed"
    assert sum(eng.committed_by_partition) == eng.events_processed
    assert all(c > 0 for c in eng.committed_by_partition)


def test_spawn_backend_bit_identical(sequential_ref):
    """The real thing: one spawned worker process per partition."""
    mgr = _manager({"type": "mp-conservative", "partitions": 3,
                    "backend": "mp"})
    out = mgr.run(until=1.0)
    eng = out.fabric.engine
    assert eng.execution_mode == "distributed"
    assert eng.fallback_reason is None
    assert all(c > 0 for c in eng.committed_by_partition)
    assert _fingerprint(out) == sequential_ref


def test_stepping_parity(sequential_ref):
    """step(t1); step(t2); step(horizon) commits the identical sequence
    as one run -- window exchange state survives across steps."""
    mgr = _manager({"type": "mp-conservative", "partitions": 3,
                    "backend": "inline"})
    session = mgr.session()
    session.build()
    for t in (0.0001, 0.0004, 1.0):
        session.step(t)
    out = session.finalize()
    assert out.fabric.engine.execution_mode == "distributed"
    assert _fingerprint(out) == sequential_ref


# -- fallback: ineligible models keep the single-process path ----------------

def test_fallback_without_session_still_matches():
    """Driving the engine through bare fabric + SimMPI (no session, so
    no recipe) falls back cleanly and stays bit-identical."""
    def run(engine):
        fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=9),
                               routing="adp", engine=engine)
        mpi = SimMPI(fabric)
        mpi.add_job(JobSpec("nn", 8, nearest_neighbor, list(range(8)),
                            {"dims": (2, 2, 2), "iters": 2, "msg_bytes": 8192}))
        mpi.run(until=1.0)
        res = mpi.results()[0]
        return (res.avg_latency(), res.max_comm_time(),
                fabric.engine.events_processed)

    ref = run(None)
    eng = mp_conservative_engine(Dragonfly1D.mini(), NetworkConfig(seed=9),
                                 partitions=3, backend="inline")
    assert run(eng) == ref
    assert eng.execution_mode == "local"
    assert "no model recipe bound" in eng.fallback_reason


def test_fallback_on_late_arrival_still_matches():
    def run(engine):
        mgr = WorkloadManager(Dragonfly1D.mini(), routing="adp",
                              placement="rn", seed=4, engine=engine)
        mgr.add_job(Job("nn", 8, program=nearest_neighbor,
                        params={"dims": (2, 2, 2), "iters": 2,
                                "msg_bytes": 8192}))
        mgr.add_job(Job("late", 8, program=uniform_random, arrival=0.0005,
                        params={"iters": 2, "msg_bytes": 4096}))
        return mgr.run(until=1.0)

    ref = run(None)
    out = run({"type": "mp-conservative", "partitions": 3,
               "backend": "inline"})
    eng = out.fabric.engine
    assert eng.execution_mode == "local"
    assert "arrives at t=0.0005" in eng.fallback_reason
    for name in ("nn", "late"):
        assert (out.app(name).result.avg_latency()
                == ref.app(name).result.avg_latency())
    assert eng.events_processed == ref.fabric.engine.events_processed


def test_fallback_on_intervening_policy():
    from repro.scenario.spec import FaultEntry

    mgr = _manager({"type": "mp-conservative", "partitions": 3,
                    "backend": "inline"})
    out = mgr.session(policy="admission").run(until=1.0)
    eng = out.fabric.engine
    assert eng.execution_mode == "local"
    assert "policy 'admission'" in eng.fallback_reason

    faulted = WorkloadManager(
        Dragonfly1D.mini(), routing="adp", placement="rn", seed=4,
        engine={"type": "mp-conservative", "partitions": 3,
                "backend": "inline"},
        faults=[FaultEntry(name="f0", kind="link-degrade", start=0.0001,
                           duration=0.001, router=0, router_b=1, factor=0.5)],
    )
    faulted.add_job(Job("nn", 8, program=nearest_neighbor,
                        params={"dims": (2, 2, 2), "iters": 1,
                                "msg_bytes": 4096}))
    fout = faulted.run(until=1.0)
    feng = fout.fabric.engine
    assert feng.execution_mode == "local"
    assert "fault plans" in feng.fallback_reason


# -- registry + factory validation -------------------------------------------

def test_registry_rejects_unknown_backend():
    with pytest.raises(RegistryError, match="is not one of"):
        build_engine({"type": "mp-conservative", "backend": "bogus"},
                     Dragonfly1D.mini())


def test_registry_resolves_mp_alias_and_params():
    from repro.parallel.mp import MpConservativeEngine

    eng = build_engine({"type": "mp", "partitions": 3, "backend": "inline"},
                       Dragonfly1D.mini())
    assert isinstance(eng, MpConservativeEngine)
    assert eng.n_partitions == 3
    assert eng.backend_name == "inline"
    assert eng.execution_mode == "undecided"


# -- scenario goldens ---------------------------------------------------------

# Program-kind apps only: skeleton apps (alexnet, cosmoflow) carry
# exec-compiled generators that cannot pickle, so they cannot ship to
# worker processes (covered by the fallback golden below).
_SCENARIO = {
    "name": "golden-mp",
    "topology": {"network": "1d", "scale": "mini"},
    "seed": 7,
    "horizon": 0.004,
    "jobs": [
        {"app": "milc", "nranks": 16},
        {"app": "nn", "nranks": 8, "params": {"dims": (2, 2, 2)}},
    ],
    "traffic": [
        {"pattern": "uniform", "nranks": 8, "msg_bytes": 4096,
         "interval_s": 1e-4},
    ],
}


def test_scenario_golden_mp_identical_modulo_engine_key():
    """The PR's acceptance golden: an all-static scenario under
    ``mp-conservative`` distributes for real and produces scenario JSON
    bit-identical to the sequential run, modulo the ``engine`` key."""
    _, seq = oracle.split(run_scenario(parse_scenario(
        dict(_SCENARIO, engine={"type": "sequential"}))).to_json_dict())
    mp_spec = dict(_SCENARIO)
    mp_spec["engine"] = {"type": "mp-conservative", "partitions": 3,
                         "backend": "inline"}
    engine, con = oracle.split(
        run_scenario(parse_scenario(mp_spec)).to_json_dict())
    assert con == seq
    assert engine["type"] == "mp-conservative"
    assert engine["mode"] == "distributed"
    assert engine["fallback"] is None
    assert engine["partitions"] == 3
    assert engine["scheme"] == "group"
    assert engine["windows"] > 1
    assert engine["lookahead"] > 0


@pytest.mark.parametrize("jobs, reason", [
    ([{"app": "milc", "nranks": 16},
      {"app": "milc", "name": "milc2", "nranks": 16, "arrival": 0.001}],
     "arrives at t=0.001"),
    ([{"app": "alexnet", "nranks": 16}], "does not pickle"),
])
def test_scenario_golden_mp_fallback_identical(jobs, reason):
    """Scenarios that cannot distribute (staggered arrival, unpicklable
    skeleton app) fall back, say why in the report, and still match
    sequential bit for bit."""
    spec = dict(_SCENARIO)
    spec["jobs"] = jobs
    _, seq = oracle.split(run_scenario(parse_scenario(
        dict(spec, engine={"type": "sequential"}))).to_json_dict())
    mp_spec = dict(spec)
    mp_spec["engine"] = {"type": "mp-conservative", "partitions": 3,
                         "backend": "inline"}
    engine, con = oracle.split(
        run_scenario(parse_scenario(mp_spec)).to_json_dict())
    assert con == seq
    assert engine["mode"] == "local"
    assert reason in engine["fallback"]
