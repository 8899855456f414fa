"""Primitive operation and request types of the simulated MPI runtime."""

from __future__ import annotations

from typing import Any

ANY_SOURCE = -1
ANY_TAG = -1


class Message:
    """A delivered message as seen by the receiving rank."""

    __slots__ = ("src", "tag", "nbytes", "sent_at", "arrived_at")

    def __init__(self, src: int, tag: int, nbytes: int, sent_at: float, arrived_at: float) -> None:
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.sent_at = sent_at
        self.arrived_at = arrived_at

    @property
    def latency(self) -> float:
        return self.arrived_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message(src={self.src}, tag={self.tag}, nbytes={self.nbytes})"


class Request:
    """Handle for a nonblocking operation."""

    __slots__ = ("kind", "complete", "result", "rank", "nbytes", "peer", "tag", "posted_at", "waiter")

    def __init__(self, kind: str, rank: int, nbytes: int, peer: int, tag: int, posted_at: float) -> None:
        self.kind = kind  # "send" | "recv"
        self.complete = False
        self.result: Any = None
        self.rank = rank
        self.nbytes = nbytes
        self.peer = peer
        self.tag = tag
        self.posted_at = posted_at
        self.waiter: Any = None  # rank state blocked on this request

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.complete else "pending"
        return f"Request({self.kind}, rank={self.rank}, peer={self.peer}, tag={self.tag}, {state})"


# ---------------------------------------------------------------------------
# Operations yielded by rank generators.  Each is a tiny tagged record; the
# engine dispatches on the class.
# ---------------------------------------------------------------------------


class Isend:
    """Nonblocking send; the engine resumes immediately with a Request.

    The request completes when the message's last packet has left the
    source NIC, so a blocking Send (Isend+Wait) stalls under injection
    contention -- the behaviour that makes LAMMPS's blocking sends
    sensitive to interference in the paper.
    """

    __slots__ = ("dst", "nbytes", "tag")

    def __init__(self, dst: int, nbytes: int, tag: int = 0) -> None:
        self.dst = dst
        self.nbytes = nbytes
        self.tag = tag


class Irecv:
    """Nonblocking receive; resumes immediately with a Request."""

    __slots__ = ("src", "nbytes", "tag")

    def __init__(self, src: int = ANY_SOURCE, nbytes: int | None = None, tag: int = ANY_TAG) -> None:
        self.src = src
        self.nbytes = nbytes
        self.tag = tag


class Wait:
    """Block until the request completes; resumes with its result."""

    __slots__ = ("request",)

    def __init__(self, request: Request) -> None:
        self.request = request


class Waitall:
    """Block until all requests complete; resumes with their results."""

    __slots__ = ("requests",)

    def __init__(self, requests: list[Request]) -> None:
        self.requests = list(requests)


class Compute:
    """Local computation: advance this rank's clock without traffic.

    Does not count towards communication time.  This is the delay model
    that replaces real computation in a skeleton (``UNION_Compute``).
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"compute time must be >= 0, got {seconds}")
        self.seconds = seconds


class Sleep(Compute):
    """Idle wait; timing-wise identical to Compute."""

    __slots__ = ()


class Collective:
    """One collective call, run as its recorded point-to-point schedule
    (:class:`repro.mpi.collectives.Schedule`); resumes with ``None``
    once every step has completed.  ``tag_base`` is added to every
    recorded tag: it is what isolates this call from the rank's other
    collectives."""

    __slots__ = ("schedule", "tag_base")

    def __init__(self, schedule, tag_base: int) -> None:
        self.schedule = schedule
        self.tag_base = tag_base


class MessageHook:
    """Extension point for fabric messages owned by non-MPI subsystems.

    A message sent with a :class:`MessageHook` as its ``meta`` bypasses
    the MPI rank-matching machinery: the engine calls
    :meth:`on_injected` when the last packet leaves the source NIC and
    :meth:`on_delivered` when the message fully arrives.  The storage
    subsystem uses this to ship I/O requests and responses over the same
    simulated network as MPI traffic.
    """

    __slots__ = ()

    def on_injected(self, time: float) -> None:
        """Last packet left the source NIC."""

    def on_delivered(self, time: float) -> None:
        """Message fully arrived at the destination terminal."""
