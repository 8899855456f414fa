"""Collective algorithms: completion, message counts, synchronization,
and the schedules they are recorded into."""

import pytest

from repro.mpi import collectives as coll
from repro.mpi.engine import JobSpec, SimMPI
from repro.mpi.types import Irecv, Isend, Wait, Waitall
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric


def run_collective(nranks, body, until=2.0, seed=1):
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=seed), routing="min")
    mpi = SimMPI(fabric)
    mpi.add_job(JobSpec("coll", nranks, body, list(range(nranks))))
    mpi.run(until=until)
    return mpi.results()[0], fabric


SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16]


@pytest.mark.parametrize("n", SIZES)
def test_barrier_completes(n):
    def prog(ctx):
        yield from ctx.barrier()

    res, _ = run_collective(n, prog)
    assert res.finished


def test_barrier_synchronizes():
    """No rank may leave the barrier before the last rank has entered."""
    enter, leave = {}, {}

    def prog(ctx):
        yield ctx.compute(0.001 * (ctx.rank + 1))  # staggered arrival
        enter[ctx.rank] = ctx.now
        yield from ctx.barrier()
        leave[ctx.rank] = ctx.now

    res, _ = run_collective(6, prog)
    assert res.finished
    assert min(leave.values()) >= max(enter.values())


@pytest.mark.parametrize("n", SIZES)
def test_bcast_completes(n):
    def prog(ctx):
        yield from ctx.bcast(4096, root=0)

    res, _ = run_collective(n, prog)
    assert res.finished


def test_bcast_message_count_is_n_minus_1():
    """A binomial broadcast delivers exactly n-1 point-to-point messages."""
    n = 16

    def prog(ctx):
        yield from ctx.bcast(1024, root=3)

    res, fabric = run_collective(n, prog)
    assert res.finished
    assert fabric.messages_sent == n - 1


@pytest.mark.parametrize("root", [0, 1, 5])
def test_bcast_nonzero_root(root):
    def prog(ctx):
        yield from ctx.bcast(2048, root=root)

    res, _ = run_collective(6, prog)
    assert res.finished


@pytest.mark.parametrize("n", SIZES)
def test_reduce_completes(n):
    def prog(ctx):
        yield from ctx.reduce(4096, root=0)

    res, fabric = run_collective(n, prog)
    assert res.finished
    assert fabric.messages_sent == n - 1


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("algorithm", ["rd", "ring"])
def test_allreduce_completes(n, algorithm):
    def prog(ctx):
        yield from ctx.allreduce(8192, algorithm=algorithm)

    res, _ = run_collective(n, prog)
    assert res.finished


def test_allreduce_auto_switches_to_ring():
    """Large payloads use the ring: 2(n-1) steps of size/n chunks, so the
    per-rank transmitted volume is ~2*size*(n-1)/n instead of ~size*log n."""
    n = 8
    size = 1 << 20

    def prog(ctx):
        yield from ctx.allreduce(size)  # auto -> ring

    res, _ = run_collective(n, prog)
    per_rank = res.rank_stats[0].bytes_sent
    expected_ring = 2 * (n - 1) * ((size + n - 1) // n)
    assert per_rank == expected_ring


def test_allreduce_small_uses_recursive_doubling():
    n = 8
    size = 64

    def prog(ctx):
        yield from ctx.allreduce(size)  # auto -> rd

    res, _ = run_collective(n, prog)
    # log2(8)=3 rounds of full-size exchange
    assert res.rank_stats[0].bytes_sent == 3 * size


def test_allreduce_rd_non_power_of_two():
    def prog(ctx):
        yield from ctx.allreduce(1024, algorithm="rd")

    res, _ = run_collective(6, prog)
    assert res.finished


def test_allreduce_rejects_unknown_algorithm():
    def prog(ctx):
        yield from ctx.allreduce(8, algorithm="magic")

    with pytest.raises(ValueError, match="unknown allreduce"):
        run_collective(4, prog)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_allgather_completes(n):
    def prog(ctx):
        yield from ctx.allgather(256)

    res, _ = run_collective(n, prog)
    assert res.finished
    assert res.rank_stats[0].bytes_sent == (n - 1) * 256


@pytest.mark.parametrize("n", [2, 4, 5])
def test_alltoall_completes(n):
    def prog(ctx):
        yield from ctx.alltoall(128)

    res, _ = run_collective(n, prog)
    assert res.finished
    assert res.rank_stats[0].bytes_sent == (n - 1) * 128


def test_gather_and_scatter():
    n = 7

    def prog(ctx):
        yield from ctx.gather(512, root=2)
        yield from ctx.scatter(256, root=2)

    res, fabric = run_collective(n, prog)
    assert res.finished
    assert fabric.messages_sent == 2 * (n - 1)


def test_collectives_single_rank_are_noops():
    def prog(ctx):
        yield from ctx.barrier()
        yield from ctx.bcast(100)
        yield from ctx.allreduce(100)
        yield from ctx.reduce(100)
        yield from ctx.allgather(100)
        yield from ctx.alltoall(100)

    res, fabric = run_collective(1, prog)
    assert res.finished
    assert fabric.messages_sent == 0


def test_back_to_back_collectives_do_not_cross_match():
    """Sequence numbers isolate consecutive collectives' tags."""

    def prog(ctx):
        for _ in range(5):
            yield from ctx.allreduce(64, algorithm="rd")
            yield from ctx.barrier()
            yield from ctx.bcast(64, root=0)

    res, _ = run_collective(5, prog)
    assert res.finished


def test_collective_counters():
    def prog(ctx):
        yield from ctx.allreduce(64)
        yield from ctx.bcast(64)
        yield from ctx.barrier()

    res, _ = run_collective(4, prog)
    counts = res.event_counts()
    assert counts["MPI_Allreduce"] == 4
    assert counts["MPI_Bcast"] == 4
    assert counts["MPI_Barrier"] == 4
    # internal point-to-point traffic is not double counted
    assert "MPI_Isend" not in counts


@pytest.mark.parametrize("call", [lambda ctx: ctx.allreduce(8.0),
                                  lambda ctx: ctx.bcast(8, root=1.0)],
                         ids=["size", "root"])
def test_collective_sizes_and_roots_must_be_integers(call):
    def prog(ctx):
        yield from ctx.allreduce(8)
        yield from call(ctx)

    with pytest.raises(TypeError, match="sizes and roots must be integers"):
        run_collective(4, prog)


# -- recorded schedules ----------------------------------------------------------

ALGORITHMS = [
    (coll.barrier, ()), (coll.bcast, (100, 2)), (coll.reduce, (7, 3)),
    (coll.allreduce, (8, "rd")), (coll.allreduce, (8, "ring")),
    (coll.allreduce, (1 << 20, "auto")), (coll.allgather, (64,)),
    (coll.alltoall, (0,)), (coll.gather, (5, 1)), (coll.scatter, (9, 4)),
]


class _DirectCtx:
    """A ctx to drive an algorithm's generator directly, the way a rank
    did before schedules: requests are handles in order of issue."""

    def __init__(self, size, rank, seq):
        self.size, self.rank, self._seq = size, rank, seq

    def _next_coll_seq(self):
        self._seq += 1
        return self._seq - 1

    def _isend_raw(self, dst, nbytes, tag):
        return Isend(dst, nbytes, tag)

    def _irecv_raw(self, src, tag):
        return Irecv(src, None, tag)


def _direct_ops(algorithm, size, rank, args, seq):
    gen, ops, issued, value = algorithm(_DirectCtx(size, rank, seq), *args), [], 0, None
    while True:
        try:
            op = gen.send(value)
        except StopIteration:
            return ops
        value = None
        if isinstance(op, Isend):
            ops.append(("isend", op.dst, op.nbytes, op.tag))
            value, issued = issued, issued + 1
        elif isinstance(op, Irecv):
            ops.append(("irecv", op.src, op.tag))
            value, issued = issued, issued + 1
        elif isinstance(op, Wait):
            ops.append(("waitall", (op.request,)))
        else:
            assert isinstance(op, Waitall)
            ops.append(("waitall", tuple(op.requests)))


def _schedule_ops(sched, base):
    code, pc, ops = list(sched.code), 0, []
    while pc < len(code):
        step = code[pc]
        if step == coll.ISEND:
            ops.append(("isend", code[pc + 1], code[pc + 2], base + code[pc + 3]))
            pc += 4
        elif step == coll.IRECV:
            ops.append(("irecv", code[pc + 1], base + code[pc + 2]))
            pc += 3
        elif step == coll.WAIT:
            ops.append(("waitall", (code[pc + 1],)))
            pc += 2
        else:
            n = code[pc + 1]
            ops.append(("waitall", tuple(code[pc + 2:pc + 2 + n])))
            pc += 2 + n
    return ops


@pytest.mark.parametrize("algorithm, args", ALGORITHMS,
                         ids=[f"{a.__name__}{args}" for a, args in ALGORITHMS])
@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
def test_schedule_is_the_generators_op_stream(algorithm, args, size):
    """For every rank, the recorded schedule issues exactly what driving
    the generator issues, with tags offset by the call's sequence number."""
    for rank in range(size):
        sched = coll.record(algorithm, size, rank, args)
        for seq in (0, 5):
            want = _direct_ops(algorithm, size, rank, args, seq)
            got = _schedule_ops(sched, coll.tag_base(seq, sched))
            assert got == want, (rank, seq)
        assert sched.seqs == (size > 1)


def test_schedules_are_cached_and_bounded(monkeypatch):
    monkeypatch.setattr(coll, "_cache", type(coll._cache)())
    monkeypatch.setattr(coll, "_cache_words", 0)
    a = coll.schedule(coll.barrier, 8, 3, ())
    assert coll.schedule(coll.barrier, 8, 3, ()) is a
    monkeypatch.setattr(coll, "CACHE_WORDS", len(a.code) + 1)
    coll.schedule(coll.barrier, 8, 4, ())
    assert list(coll._cache) == [(coll.barrier, 8, 4, ())]  # LRU evicted rank 3
    # a schedule larger than the whole cache is still recorded and run
    big = coll.schedule(coll.alltoall, 8, 0, (1,))
    assert len(big.code) > coll.CACHE_WORDS and not coll._cache


def test_malformed_collectives_are_refused_at_record_time():
    def unwaited(ctx):
        seq = ctx._next_coll_seq()
        yield ctx._isend_raw(0, 1, coll._tag(seq, 0))

    def foreign_tag(ctx):
        ctx._next_coll_seq()
        req = yield ctx._isend_raw(0, 1, 5)
        yield Wait(req)

    with pytest.raises(ValueError, match="unwaited"):
        coll.record(unwaited, 2, 1, ())
    with pytest.raises(ValueError, match="outside its sequence numbers"):
        coll.record(foreign_tag, 2, 1, ())
