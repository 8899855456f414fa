"""RankCtx: the per-rank API surface that rank programs code against.

A rank program is ``def program(ctx): ...`` yielding operations::

    def pingpong(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1024)
            msg = yield from ctx.recv(1)
        elif ctx.rank == 1:
            msg = yield from ctx.recv(0)
            yield from ctx.send(0, 1024)

Blocking helpers (``send``, ``recv``, collectives) are generators and
must be driven with ``yield from``; nonblocking primitives (``isend``,
``irecv``) are plain ops to ``yield`` directly.

The ctx also carries the counters used for skeleton validation: every
call increments an ``MPI_<Name>``-style counter, while the internal
point-to-point messages of collectives are *not* double counted.

A collective call yields one :class:`~repro.mpi.types.Collective` op:
the algorithm's recorded point-to-point schedule
(:mod:`repro.mpi.collectives`, "Schedules"), which the runtime executes
step by step.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Generator

from repro.mpi import collectives as coll
from repro.mpi.types import (
    ANY_SOURCE,
    ANY_TAG,
    Collective,
    Compute,
    Irecv,
    Isend,
    Request,
    Sleep,
    Wait,
    Waitall,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.engine import SimMPI, _RankState


class RankCtx:
    """Execution context of one MPI rank inside the simulation."""

    __slots__ = ("_mpi", "_rs", "_coll_seq")

    def __init__(self, mpi: "SimMPI", rs: "_RankState") -> None:
        self._mpi = mpi
        self._rs = rs
        self._coll_seq = 0

    # -- identity ------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rs.rank

    @property
    def size(self) -> int:
        return len(self._rs.job.ranks)

    @property
    def job_name(self) -> str:
        return self._rs.job.spec.name

    @property
    def params(self) -> dict[str, Any]:
        return self._rs.job.spec.params

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._mpi.engine.now

    @property
    def stats(self):
        return self._rs.stats

    # -- nonblocking primitives (yield the returned op) --------------------------
    def isend(self, dst: int, nbytes: int, tag: int = 0) -> Isend:
        self._rs.stats.count("MPI_Isend")
        return Isend(dst, nbytes, tag)

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Irecv:
        self._rs.stats.count("MPI_Irecv")
        return Irecv(src, None, tag)

    def wait(self, request: Request) -> Wait:
        self._rs.stats.count("MPI_Wait")
        return Wait(request)

    def waitall(self, requests: list[Request]) -> Waitall:
        self._rs.stats.count("MPI_Waitall")
        return Waitall(requests)

    # -- blocking helpers (drive with ``yield from``) ------------------------------
    def send(self, dst: int, nbytes: int, tag: int = 0) -> Generator:
        """Blocking send: returns once the message left the NIC."""
        self._rs.stats.count("MPI_Send")
        req = yield Isend(dst, nbytes, tag)
        yield Wait(req)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive: returns the :class:`Message`."""
        self._rs.stats.count("MPI_Recv")
        req = yield Irecv(src, None, tag)
        msg = yield Wait(req)
        return msg

    def sendrecv(self, dst: int, src: int, nbytes: int, tag: int = 0) -> Generator:
        """Simultaneous blocking send+recv (deadlock-free exchange)."""
        self._rs.stats.count("MPI_Sendrecv")
        sreq = yield Isend(dst, nbytes, tag)
        rreq = yield Irecv(src, None, tag)
        res = yield Waitall([sreq, rreq])
        return res[1]

    # -- timing -----------------------------------------------------------------
    def compute(self, seconds: float) -> Compute:
        """Local computation delay (yield the returned op)."""
        return Compute(seconds)

    def sleep(self, seconds: float) -> Sleep:
        return Sleep(seconds)

    # -- collectives (drive with ``yield from``) -------------------------------------
    def _collective(self, counter: str, algorithm, args: tuple) -> Generator:
        """Count the call, then yield it as its schedule (nothing for an
        empty one).  Sizes and roots must be integers: a schedule holds
        them as such, on every engine."""
        try:
            args = tuple(a if isinstance(a, str) else operator.index(a) for a in args)
        except TypeError:
            raise TypeError(f"{counter} sizes and roots must be integers, "
                            f"got {args!r}") from None
        rs = self._rs
        rs.stats.count(counter)
        sched = coll.schedule(algorithm, len(rs.job.ranks), rs.rank, args)
        seq = self._coll_seq
        self._coll_seq = seq + sched.seqs
        if sched.code:
            yield Collective(sched, coll.tag_base(seq, sched))

    def barrier(self) -> Generator:
        return self._collective("MPI_Barrier", coll.barrier, ())

    def bcast(self, nbytes: int, root: int = 0) -> Generator:
        return self._collective("MPI_Bcast", coll.bcast, (nbytes, root))

    def reduce(self, nbytes: int, root: int = 0) -> Generator:
        return self._collective("MPI_Reduce", coll.reduce, (nbytes, root))

    def allreduce(self, nbytes: int, algorithm: str = "auto") -> Generator:
        return self._collective("MPI_Allreduce", coll.allreduce, (nbytes, algorithm))

    def allgather(self, nbytes: int) -> Generator:
        return self._collective("MPI_Allgather", coll.allgather, (nbytes,))

    def alltoall(self, nbytes: int) -> Generator:
        return self._collective("MPI_Alltoall", coll.alltoall, (nbytes,))

    def gather(self, nbytes: int, root: int = 0) -> Generator:
        return self._collective("MPI_Gather", coll.gather, (nbytes, root))

    def scatter(self, nbytes: int, root: int = 0) -> Generator:
        return self._collective("MPI_Scatter", coll.scatter, (nbytes, root))

    # -- logging / bookkeeping ---------------------------------------------------------
    def reset_counters(self) -> None:
        """coNCePTuaL's "resets its counters": restart the elapsed clock."""
        self._rs.epoch_start = self._mpi.engine.now

    @property
    def elapsed_usecs(self) -> float:
        """Microseconds since the last :meth:`reset_counters` (or start)."""
        return (self._mpi.engine.now - self._rs.epoch_start) * 1e6

    def log(self, label: str, value: float) -> None:
        """Record a labelled value (coNCePTuaL's "logs ... as ...")."""
        self._rs.stats.log_rows.append((label, float(value)))
