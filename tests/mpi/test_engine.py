"""SimMPI job management and multi-job isolation."""

import pytest

from repro.mpi.engine import JobSpec, SimMPI
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.pdes.sequential import SequentialEngine


def make_mpi():
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=1), routing="min")
    return SimMPI(fabric)


def exchange(ctx):
    peer = ctx.size - 1 - ctx.rank
    if peer == ctx.rank:
        return
    yield from ctx.sendrecv(peer, peer, 1024, tag=1)


def test_jobspec_validation():
    with pytest.raises(ValueError, match="at least 1 rank"):
        JobSpec("x", 0, exchange, [])
    with pytest.raises(ValueError, match="rank_to_node"):
        JobSpec("x", 2, exchange, [0])


def test_add_job_checks_nodes():
    mpi = make_mpi()
    with pytest.raises(ValueError, match="outside system"):
        mpi.add_job(JobSpec("x", 1, exchange, [9999]))


def test_run_without_jobs():
    mpi = make_mpi()
    with pytest.raises(RuntimeError, match="no jobs"):
        mpi.run()


def test_cannot_add_job_after_start():
    mpi = make_mpi()
    mpi.add_job(JobSpec("a", 2, exchange, [0, 1]))
    mpi.run(until=0.1)
    with pytest.raises(RuntimeError, match="after the simulation started"):
        mpi.add_job(JobSpec("b", 2, exchange, [2, 3]))


@pytest.mark.parametrize("engine", [SequentialEngine, None],
                         ids=["sequential", "default"])
def test_cannot_register_op_handler_after_start(engine):
    """One rule on every engine, whether or not it runs the ranks itself."""
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=1), routing="min",
                           engine=engine and engine())
    mpi = SimMPI(fabric)
    mpi.add_job(JobSpec("a", 2, exchange, [0, 1]))
    mpi.start()
    with pytest.raises(RuntimeError, match="after the simulation started"):
        mpi.register_op_handler(int, lambda *a: None)
    assert mpi.op_handlers == {}


def test_two_jobs_do_not_cross_talk():
    """Same tags, same pattern, different jobs: messages must not mix."""
    mpi = make_mpi()
    mpi.add_job(JobSpec("a", 4, exchange, [0, 1, 2, 3]))
    mpi.add_job(JobSpec("b", 4, exchange, [4, 5, 6, 7]))
    mpi.run(until=1.0)
    ra, rb = mpi.results()
    assert ra.finished and rb.finished
    assert all(s.msgs_recvd == 1 for s in ra.rank_stats)
    assert all(s.msgs_recvd == 1 for s in rb.rank_stats)


def test_results_metadata():
    mpi = make_mpi()
    mpi.add_job(JobSpec("alpha", 2, exchange, [0, 99], {"p": 3}))
    mpi.run(until=1.0)
    (res,) = mpi.results()
    assert res.name == "alpha"
    assert res.app_id == 0
    assert res.nranks == 2
    assert res.finished
    assert all(s.finished_at > 0 for s in res.rank_stats)


def test_params_visible_to_program():
    seen = {}

    def prog(ctx):
        seen["params"] = ctx.params
        seen["job"] = ctx.job_name
        return
        yield  # pragma: no cover

    mpi = make_mpi()
    mpi.add_job(JobSpec("pjob", 1, prog, [0], {"k": 42}))
    mpi.run(until=0.1)
    assert seen["params"] == {"k": 42}
    assert seen["job"] == "pjob"


def test_unfinished_job_reported():
    def forever(ctx):
        while True:
            yield ctx.compute(1e-3)

    mpi = make_mpi()
    mpi.add_job(JobSpec("inf", 1, forever, [0]))
    mpi.run(until=0.01)
    (res,) = mpi.results()
    assert not res.finished
    assert not mpi.all_finished()


def test_unsupported_yield_rejected():
    def bad(ctx):
        yield "nonsense"

    mpi = make_mpi()
    mpi.add_job(JobSpec("bad", 1, bad, [0]))
    with pytest.raises(TypeError, match="unsupported object"):
        mpi.run(until=0.1)


def test_compute_accumulates_compute_time():
    def prog(ctx):
        yield ctx.compute(1e-3)
        yield ctx.sleep(2e-3)

    mpi = make_mpi()
    mpi.add_job(JobSpec("c", 1, prog, [0]))
    mpi.run(until=1.0)
    (res,) = mpi.results()
    assert res.rank_stats[0].compute_time == pytest.approx(3e-3)
    assert res.rank_stats[0].finished_at == pytest.approx(3e-3)


def test_negative_compute_rejected():
    from repro.mpi.types import Compute

    with pytest.raises(ValueError):
        Compute(-1.0)


def test_log_rows_and_reset():
    def prog(ctx):
        ctx.reset_counters()
        yield ctx.compute(1e-3)
        ctx.log("elapsed", ctx.elapsed_usecs)

    mpi = make_mpi()
    mpi.add_job(JobSpec("log", 1, prog, [0]))
    mpi.run(until=1.0)
    (res,) = mpi.results()
    rows = res.rank_stats[0].log_rows
    assert len(rows) == 1
    assert rows[0][0] == "elapsed"
    assert rows[0][1] == pytest.approx(1000.0, rel=0.01)


def test_latency_summary():
    from repro.mpi.engine import RankStats

    s = RankStats()
    assert s.latency_summary() == (0.0, 0.0, 0.0)
    s.latencies.extend([1.0, 3.0, 2.0])
    assert s.latency_summary() == (1.0, 2.0, 3.0)
