"""Parity of resident ranks: the compiled kernel running SimMPI's
matching, requests, waits, compute wakeups and collective schedules,
held against the pure-Python ``sequential`` engine on full state --
every rank's ``RankStats`` (latency lists, ``comm_time`` and
``compute_time`` bit for bit, counters, log rows, ``finished_at``) and
the fabric's mirrors -- not on a digest.  Then every reason the ranks
stay on SimMPI's Python executor, each reported as ``ranks: "python"``
with a ``ranks_reason``.
"""

import pytest

from repro.accel import KernelEngine, kernel_status
from repro.mpi import collectives as coll
from repro.mpi.engine import JobSpec, SimMPI
from repro.mpi.types import ANY_SOURCE, ANY_TAG
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.parallel import conservative_engine
from repro.pdes.sequential import SequentialEngine
from repro.scenario import build_manager, oracle, parse_scenario, run_scenario
from repro.telemetry import Telemetry

from tests.accel.test_resident_fabric import full_state

pytestmark = pytest.mark.skipif(
    not kernel_status()["available"],
    reason=f"no compiled kernel: {kernel_status()['reason']}")


def rank_state(mpi):
    out = []
    for res in mpi.results():
        for s in res.rank_stats:
            out.append((
                res.name, res.finished, s.msgs_sent, s.msgs_recvd,
                s.bytes_sent, s.comm_time.hex(), s.compute_time.hex(),
                [x.hex() for x in s.latencies], dict(s.counters),
                list(s.log_rows), s.finished_at,
            ))
    return out


def state(mpi):
    """Everything Python can see after a run or step returns."""
    fabric = mpi.fabric
    fab = full_state(fabric, [])
    del fab["in_flight"]  # resident ranks' messages are the kernel's
    fab.update(in_flight=fabric.in_flight(), bytes_sent=fabric.bytes_sent,
               msg_seq=list(fabric._msg_seq))
    return {"ranks": rank_state(mpi), "fabric": fab}


def build(engine, jobs, routing="adp", telemetry=None):
    """A SimMPI on ``engine`` (None: the default) with ``jobs`` as
    ``(name, nranks, program, nodes)``."""
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=3),
                           routing=routing, engine=engine, telemetry=telemetry)
    mpi = SimMPI(fabric)
    for name, nranks, program, nodes in jobs:
        mpi.add_job(JobSpec(name, nranks, program, nodes))
    return mpi


def both(jobs, until=1.0, **kw):
    """(reference state, resident state, resident SimMPI)"""
    ref = build(SequentialEngine(), jobs, **kw)
    ref.run(until=until)
    mpi = build(None, jobs, **kw)
    mpi.run(until=until)
    return state(ref), state(mpi), mpi


def assert_resident(mpi):
    engine = mpi.engine
    assert (engine.ranks, engine.ranks_reason) == ("resident", "")
    assert engine.describe()["ranks"] == "resident"


# -- collectives -----------------------------------------------------------

def every_collective(ctx):
    n, last = ctx.size, ctx.size - 1
    root = n // 2
    for k in range(2):
        yield ctx.compute(1e-7 * (ctx.rank % 3 + k))
        yield from ctx.barrier()
        yield from ctx.bcast(4096 * 3 + 5, root=root)
        yield from ctx.reduce(64, root=last)
        yield from ctx.allreduce(8, algorithm="rd")
        yield from ctx.allreduce(70_000, algorithm="ring")
        yield from ctx.allreduce(100_000)  # auto
        yield from ctx.allgather(512)
        yield from ctx.alltoall(0)
        yield from ctx.gather(100, root=last)
        yield from ctx.scatter(1, root=root)
        ctx.log("comm", ctx.stats.comm_time)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
def test_every_collective_matches_sequential(n):
    # Two jobs share the fabric; in the second, ranks share nodes (so
    # some collective messages are self-sends).
    jobs = [("coll", n, every_collective, list(range(n))),
            ("shared", n, every_collective, [70 + r // 2 for r in range(n)])]
    ref, got, mpi = both(jobs)
    assert_resident(mpi)
    assert got == ref
    assert all(row[1] for row in got["ranks"])  # every job finished


@pytest.mark.parametrize("sizes", [(8, 8.0), (8.0, 8)], ids=["int-first", "float-first"])
def test_a_float_collective_size_fails_alike_whatever_ran_before(sizes, monkeypatch):
    """Equal sizes of different types share no schedule: the float call
    is refused on both executors, before or after the int call."""
    monkeypatch.setattr(coll, "_cache", type(coll._cache)())

    def program(ctx):
        for nbytes in sizes:
            yield from ctx.allreduce(nbytes)

    def run(engine):
        mpi = build(engine, [("f", 4, program, list(range(4)))])
        with pytest.raises(TypeError, match=r"MPI_Allreduce sizes and roots "
                           r"must be integers, got \(8.0, 'auto'\)"):
            mpi.run(until=1.0)
        return mpi.engine.events_processed, state(mpi)

    assert run(None) == run(SequentialEngine())


# -- point to point ----------------------------------------------------------

def p2p(ctx):
    """ANY_SOURCE / ANY_TAG, unexpected-before-posted, a Wait on a send,
    zero-byte messages, a send to oneself, and mid-run reads of the
    rank's own stats."""
    r, n = ctx.rank, ctx.size
    if r == 0:
        reqs = []
        for src in range(1, n):
            reqs.append((yield ctx.irecv(ANY_SOURCE, ANY_TAG)))
        msgs = yield ctx.waitall(reqs)
        ctx.log("srcs", sum(m.src * 10 ** i for i, m in enumerate(msgs)))
        yield ctx.compute(2e-6)
        req = yield ctx.isend(0, 0, tag=9)  # to itself
        msg = yield from ctx.recv(0, 9)
        yield ctx.wait(req)
        ctx.log("self", msg.arrived_at - msg.sent_at)
    else:
        req = yield ctx.isend(0, 4096 * r, tag=r)
        yield ctx.wait(req)  # the send left the NIC
        ctx.log("sent", ctx.stats.msgs_sent)
    # everyone: a late receive of an early message (unexpected queue)
    peer = (r + 1) % n
    yield from ctx.send(peer, 0, tag=77)
    yield ctx.compute(5e-6)
    msg = yield from ctx.recv((r - 1) % n, 77)
    ctx.log("late", msg.latency)
    ctx.log("recvd", ctx.stats.msgs_recvd)
    got = yield from ctx.sendrecv(peer, (r - 1) % n, 3000, tag=5)
    ctx.log("tag", got.tag)


def test_point_to_point_matches_sequential():
    jobs = [("p2p", 6, p2p, [0, 17, 33, 34, 90, 90])]
    ref, got, mpi = both(jobs)
    assert_resident(mpi)
    assert got == ref
    assert got["fabric"]["in_flight"] == 0
    # fewer calls into Python than messages: resumes, starts and finishes
    kernel = mpi.engine._kernel
    assert kernel.py_entries > 0 and kernel.mpi_in_flight == 0


def test_request_objects_match_sequential():
    seen = {}

    def program(ctx):
        if ctx.rank == 0:
            req = yield ctx.isend(1, 77, tag=4)
            yield ctx.compute(1e-3)
            seen.setdefault("send", []).append(
                (req.kind, req.complete, req.result, req.rank, req.nbytes,
                 req.peer, req.tag, req.posted_at, req.waiter))
        else:
            req = yield ctx.irecv(0)
            msg = yield ctx.wait(req)
            seen.setdefault("recv", []).append(
                (req.kind, req.complete, req.rank, req.nbytes, req.peer,
                 req.tag, req.posted_at, req.waiter, msg.src, msg.tag,
                 msg.nbytes, msg.sent_at, msg.arrived_at, req.result is msg))

    build(SequentialEngine(), [("r", 2, program, [0, 50])]).run()
    build(None, [("r", 2, program, [0, 50])]).run()
    assert seen["send"][0] == seen["send"][1]
    assert seen["recv"][0] == seen["recv"][1]


# -- stepping, budgets, arrivals ----------------------------------------------

def test_twenty_steps_and_a_budget_stop_match_sequential():
    jobs = [("coll", 8, every_collective, list(range(8))),
            ("p2p", 6, p2p, [0, 17, 33, 34, 90, 90])]
    ref, mpi = build(SequentialEngine(), jobs), build(None, jobs)
    horizon = 1e-4
    for k in range(1, 21):
        ref.step(horizon * k / 20)
        mpi.step(horizon * k / 20)
        assert state(mpi) == state(ref), f"differs at step {k}"
    for budget in (1, 333, 2000):
        ref.engine.run(until=1.0, max_events=budget)
        mpi.engine.run(until=1.0, max_events=budget)
        assert state(mpi) == state(ref), f"differs after budget {budget}"
    ref.run(until=1.0)
    mpi.run(until=1.0)
    assert_resident(mpi)
    assert state(mpi) == state(ref)


def arrival_spec(engine):
    return parse_scenario({
        "name": "resident-arrivals", "seed": 4, "horizon": 0.003,
        "topology": {"network": "1d", "scale": "mini"},
        "routing": "adp", "engine": engine,
        "jobs": [
            {"name": "nn", "app": "nn", "nranks": 8,
             "params": {"dims": [2, 2, 2], "iters": 3}},
            {"name": "lammps", "app": "lammps", "nranks": 16,
             "arrival": 2e-4, "params": {"iters": 4}},
            {"name": "cosmo", "app": "cosmoflow", "nranks": 8,
             "arrival": 4e-4, "params": {"iters": 2}},
        ],
    })


def test_mid_run_arrivals_match_sequential():
    def run(engine):
        session = build_manager(arrival_spec(engine)).session()
        session.build()
        session.step(arrival_spec(engine).horizon)
        return session, rank_state(session.mpi)

    ref_session, ref = run({"type": "sequential"})
    session, got = run({"type": "accel-sequential"})
    assert session.engine.ranks == "resident"
    assert got == ref and len({row[0] for row in got}) == 3
    _, base = oracle.split(run_scenario(arrival_spec(
        {"type": "sequential"})).to_json_dict())
    info, doc = oracle.split(run_scenario(arrival_spec(
        {"type": "accel-sequential"})).to_json_dict())
    assert doc == base
    assert (info["ranks"], info["ranks_reason"]) == ("resident", None)


def test_observe_from_a_job_end_callback_sees_current_ranks():
    """The callback fires from inside the kernel; the finished job's
    RankStats and an observe() there are what the sequential run shows."""
    def observations(engine):
        spec = arrival_spec(engine)
        session = build_manager(spec).session()
        session.build()
        inner, seen = session.mpi.job_end_callback, []

        def on_job_end(result):
            obs = session.observe()
            seen.append((obs.clock, obs.events, obs.in_flight,
                         obs.router_queue, obs.link_summary,
                         [(s.msgs_recvd, s.comm_time, list(s.latencies))
                          for s in result.rank_stats]))
            inner(result)

        session.mpi.job_end_callback = on_job_end
        session.step(spec.horizon)
        return session.engine, seen

    _, ref = observations({"type": "sequential"})
    engine, got = observations({"type": "accel-sequential"})
    assert engine.ranks == "resident"
    assert len(ref) == 3 and got == ref


# -- errors -----------------------------------------------------------------------

def test_a_raising_program_matches_sequential():
    """The exception propagates out of run() as on the Python executor,
    events_processed counts what committed before the raising event,
    the state is what the sequential run shows, and the run resumes."""
    def program(ctx):
        yield from ctx.allreduce(8)
        yield ctx.compute(1e-6 * (ctx.rank + 1))
        if ctx.rank == 3:
            raise ZeroDivisionError("rank 3 gives up")
        yield from ctx.send((ctx.rank + 1) % 8, 100)

    def run(engine):
        mpi = build(engine, [("boom", 8, program, list(range(8)))])
        with pytest.raises(ZeroDivisionError, match="rank 3 gives up"):
            mpi.run(until=1.0)
        raised = (mpi.engine.events_processed, state(mpi))
        mpi.run(until=1.0)
        return raised, (mpi.engine.events_processed, state(mpi))

    assert run(None) == run(SequentialEngine())


def test_invalid_destinations_raise_on_both_executors():
    def to_nine(ctx):
        yield ctx.irecv(9)

    for engine in (SequentialEngine(), None):
        mpi = build(engine, [("bad", 4, to_nine, list(range(4)))])
        with pytest.raises(ValueError,
                           match="rank 0 of 'bad' receives from invalid rank 9"):
            mpi.run(until=1.0)


# -- conservative windows ---------------------------------------------------------

@pytest.mark.parametrize("partitions", [2, 3])
def test_conservative_windows_match(partitions):
    jobs = [("coll", 16, every_collective, [5 * r for r in range(16)]),
            ("p2p", 6, p2p, [0, 17, 33, 34, 90, 90])]
    topo, cfg = Dragonfly1D.mini(), NetworkConfig(seed=3)

    def run(engine_cls):
        engine = conservative_engine(topo, cfg, partitions, engine_cls=engine_cls)
        fabric = NetworkFabric(topo, cfg, routing="adp", engine=engine)
        mpi = SimMPI(fabric)
        for name, nranks, program, nodes in jobs:
            mpi.add_job(JobSpec(name, nranks, program, nodes))
        mpi.run(until=1.0)
        return mpi, state(mpi)

    from repro.pdes.conservative import ConservativeEngine

    ref_mpi, ref = run(ConservativeEngine)
    mpi, got = run(KernelEngine)
    assert_resident(mpi)
    assert got == ref
    assert mpi.engine.windows_executed == ref_mpi.engine.windows_executed > 0
    assert mpi.engine.committed_by_partition == ref_mpi.engine.committed_by_partition


# -- every reason the ranks stay in Python ------------------------------------------

def storage_spec(engine):
    return parse_scenario({
        "name": "resident-storage", "seed": 2, "horizon": 0.002,
        "topology": {"network": "1d", "scale": "mini"},
        "engine": engine,
        "storage": {"servers": 2},
        "jobs": [{"name": "nn", "app": "nn", "nranks": 8,
                  "params": {"dims": [2, 2, 2], "iters": 2}}],
    })


def test_storage_keeps_the_ranks_in_python_and_says_so():
    info, doc = oracle.split(run_scenario(storage_spec(
        {"type": "accel-sequential"})).to_json_dict())
    assert info["fabric"] == "resident" and info["ranks"] == "python"
    assert "extension op handlers" in info["ranks_reason"]
    assert "IOWrite" in info["ranks_reason"]
    _, base = oracle.split(run_scenario(storage_spec(
        {"type": "sequential"})).to_json_dict())
    assert doc == base


def _declined(make_mpi, reason):
    jobs = [("coll", 8, every_collective, list(range(8)))]
    ref = build(SequentialEngine(), jobs)
    ref.run(until=1.0)
    mpi = make_mpi(jobs)
    mpi.run(until=1.0)
    engine = mpi.engine
    assert engine.ranks == "python" and reason in engine.ranks_reason
    info = engine.describe()
    assert (info["ranks"], info["ranks_reason"]) == ("python", engine.ranks_reason)
    assert rank_state(mpi) == rank_state(ref)


def test_latency_histograms_keep_the_ranks_in_python():
    _declined(lambda jobs: build(None, jobs, telemetry=Telemetry(
        enable=("mpi.job.msg_latency",))), "mpi.job.msg_latency histograms")


def test_a_python_fabric_keeps_the_ranks_in_python():
    _declined(lambda jobs: build(None, jobs, telemetry=Telemetry(
        enable=("net.router.queue",))), "the fabric is not resident")


def test_a_simmpi_subclass_keeps_the_ranks_in_python():
    class Traced(SimMPI):
        pass

    def make(jobs):
        fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=3),
                               routing="adp")
        mpi = Traced(fabric)
        for name, nranks, program, nodes in jobs:
            mpi.add_job(JobSpec(name, nranks, program, nodes))
        return mpi

    _declined(make, "SimMPI subclass (Traced)")


def test_a_second_runtime_on_one_engine_runs_in_python():
    engine = KernelEngine()
    fabric = NetworkFabric(Dragonfly1D.mini(), engine=engine)
    for expect in ("resident", "python"):
        mpi = SimMPI(fabric)
        mpi.add_job(JobSpec("c", 2, every_collective, [0, 1]))
        mpi.start()
        assert engine.ranks == expect
    assert "already hosts" in engine.ranks_reason


def test_the_python_backend_says_why(monkeypatch):
    from repro.registry.engines import build_engine

    topo, cfg = Dragonfly1D.mini(), NetworkConfig()
    monkeypatch.setenv("UNION_ACCEL_DISABLE", "1")
    fallback = build_engine({"type": "accel-sequential"}, topo, cfg)
    info = fallback.describe()
    assert info["ranks"] == "python" and "python backend" in info["ranks_reason"]


def test_an_engine_without_a_runtime_says_so():
    engine = KernelEngine()
    assert engine.ranks == "python" and "no SimMPI" in engine.ranks_reason
