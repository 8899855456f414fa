"""Simulated MPI runtime over the packet-level fabric (SWM substitute).

Each MPI rank is a Python generator -- the analogue of the Argobots
user-level threads CODES uses to co-schedule SWM skeletons with the
simulation (Section II-B).  Rank code yields primitive operations
(:class:`~repro.mpi.types.Isend`, :class:`~repro.mpi.types.Recv`,
:class:`~repro.mpi.types.Compute`, ...) and composes collectives from
the generator helpers on its :class:`~repro.mpi.process.RankCtx`.
"""

from repro.mpi.types import (
    ANY_SOURCE,
    ANY_TAG,
    Request,
    Message,
    Isend,
    Irecv,
    Wait,
    Waitall,
    Compute,
    Sleep,
    Collective,
)
from repro.mpi.engine import SimMPI, JobSpec, JobResult, RankStats
from repro.mpi.process import RankCtx

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "Message",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Compute",
    "Sleep",
    "Collective",
    "SimMPI",
    "JobSpec",
    "JobResult",
    "RankStats",
    "RankCtx",
]
