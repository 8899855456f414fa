"""Point-to-point semantics of the simulated MPI runtime."""

import pytest

from repro.mpi.engine import JobSpec, SimMPI
from repro.mpi.types import ANY_SOURCE, ANY_TAG
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric


def make_mpi(routing="min", seed=1):
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=seed), routing=routing)
    return SimMPI(fabric), fabric


def run_job(program, nranks, nodes=None, params=None, until=1.0, routing="min"):
    mpi, fabric = make_mpi(routing)
    nodes = nodes or list(range(nranks))
    mpi.add_job(JobSpec("job", nranks, program, nodes, params or {}))
    mpi.run(until=until)
    return mpi.results()[0], fabric


def test_blocking_send_recv_roundtrip():
    got = {}

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1024, tag=5)
        else:
            msg = yield from ctx.recv(0, tag=5)
            got["msg"] = msg

    res, _ = run_job(prog, 2, nodes=[0, 100])
    assert res.finished
    assert got["msg"].src == 0
    assert got["msg"].nbytes == 1024
    assert got["msg"].latency > 0


def test_isend_wait_returns_request():
    def prog(ctx):
        if ctx.rank == 0:
            req = yield ctx.isend(1, 64)
            yield ctx.wait(req)
        else:
            req = yield ctx.irecv(0)
            msg = yield ctx.wait(req)
            assert msg.nbytes == 64

    res, _ = run_job(prog, 2)
    assert res.finished


def test_waitall_multiple_requests():
    def prog(ctx):
        if ctx.rank == 0:
            reqs = []
            for dst in (1, 2, 3):
                reqs.append((yield ctx.isend(dst, 512, tag=dst)))
            yield ctx.waitall(reqs)
        else:
            msg = yield from ctx.recv(0, tag=ctx.rank)
            assert msg.src == 0

    res, _ = run_job(prog, 4, nodes=[0, 40, 80, 120])
    assert res.finished


def test_wildcard_source_and_tag():
    order = []

    def prog(ctx):
        if ctx.rank in (0, 1):
            yield from ctx.send(2, 128, tag=ctx.rank + 10)
        else:
            for _ in range(2):
                msg = yield from ctx.recv(ANY_SOURCE, ANY_TAG)
                order.append((msg.src, msg.tag))

    res, _ = run_job(prog, 3, nodes=[0, 1, 130])
    assert res.finished
    assert sorted(order) == [(0, 10), (1, 11)]


def test_unexpected_message_queue():
    """Message arriving before the recv is posted still matches."""

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 256)
        else:
            yield ctx.compute(1e-3)  # arrive late to the party
            msg = yield from ctx.recv(0)
            assert msg.nbytes == 256

    res, _ = run_job(prog, 2)
    assert res.finished


def test_tag_matching_is_selective():
    seen = []

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 100, tag=1)
            yield from ctx.send(1, 200, tag=2)
        else:
            m2 = yield from ctx.recv(0, tag=2)
            m1 = yield from ctx.recv(0, tag=1)
            seen.extend([m2.nbytes, m1.nbytes])

    res, _ = run_job(prog, 2)
    assert res.finished
    assert seen == [200, 100]


def test_latency_recorded_at_receiver():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 4096)
        else:
            yield from ctx.recv(0)

    res, _ = run_job(prog, 2, nodes=[0, 143])
    assert len(res.rank_stats[1].latencies) == 1
    assert len(res.rank_stats[0].latencies) == 0
    assert res.rank_stats[1].latencies[0] > 0


def test_comm_time_counts_blocked_wait_only():
    def prog(ctx):
        if ctx.rank == 0:
            yield ctx.compute(5e-3)
            yield from ctx.send(1, 64)
        else:
            yield from ctx.recv(0)  # blocks ~5 ms waiting

    res, _ = run_job(prog, 2)
    assert res.rank_stats[1].comm_time == pytest.approx(5e-3, rel=0.05)
    assert res.rank_stats[0].comm_time < 1e-4
    assert res.rank_stats[0].compute_time == pytest.approx(5e-3)


def test_blocking_send_stalls_on_injection():
    """A blocking send of a huge message takes ~size/terminal_bw."""

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1 << 24)  # 16 MiB

    res, fabric = run_job(prog, 2)
    expected = (1 << 24) / fabric.config.terminal_bw
    assert res.rank_stats[0].comm_time == pytest.approx(expected, rel=0.05)


def test_self_send():
    def prog(ctx):
        req = yield ctx.irecv(0)
        yield ctx.isend(0, 128)
        msg = yield ctx.wait(req)
        assert msg.src == 0

    res, _ = run_job(prog, 1)
    assert res.finished


def test_send_to_invalid_rank_raises():
    def prog(ctx):
        yield ctx.isend(5, 10)

    with pytest.raises(ValueError, match="invalid rank"):
        run_job(prog, 2)


def test_counters_track_calls():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 10)
            req = yield ctx.isend(1, 10)
            yield ctx.wait(req)
        else:
            yield from ctx.recv(0)
            yield from ctx.recv(0)

    res, _ = run_job(prog, 2)
    c0 = res.rank_stats[0].counters
    assert c0["MPI_Send"] == 1
    assert c0["MPI_Isend"] == 1
    assert res.rank_stats[1].counters["MPI_Recv"] == 2


def test_bytes_sent_accounting():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1000)
            yield from ctx.send(1, 500)

    res, _ = run_job(prog, 2)
    assert res.rank_stats[0].bytes_sent == 1500
    assert res.total_bytes_sent() == 1500


def test_sendrecv_exchange():
    def prog(ctx):
        peer = 1 - ctx.rank
        msg = yield from ctx.sendrecv(peer, peer, 2048, tag=9)
        assert msg.src == peer

    res, _ = run_job(prog, 2, nodes=[0, 80])
    assert res.finished


@pytest.mark.parametrize("engine", ["sequential", "default"])
def test_irecv_from_outside_the_job_raises(engine):
    """It used to block until the horizon, silently."""
    from repro.pdes.sequential import SequentialEngine

    def prog(ctx):
        if ctx.rank == 1:
            yield ctx.irecv(99)
        yield from ctx.recv(ANY_SOURCE)  # ANY_SOURCE stays legal

    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=1),
                           engine=SequentialEngine() if engine == "sequential" else None)
    mpi = SimMPI(fabric)
    mpi.add_job(JobSpec("job", 4, prog, [0, 1, 2, 3]))
    with pytest.raises(ValueError, match="rank 1 of 'job' receives from invalid rank 99"):
        mpi.run(until=1.0)
