"""Event objects and ordering keys for the PDES kernel.

Events are ordered by ``(time, priority, seq)``.  ``seq`` is a globally
monotone sequence number assigned at scheduling time; it makes the
ordering total, so runs are reproducible for a fixed schedule order.
:meth:`Event.__lt__` implements that total order, so events sort and
compare directly; the engines' internal queues nevertheless store
``(time, priority, seq, Event)`` tuples, because CPython resolves
tuple comparisons in C while a raw-event heap pays a Python-level
``__lt__`` call per comparison (measured 15-20% slower end-to-end).
Cross-engine determinism additionally requires the ``(time, priority)``
part of the key to be unique per destination LP (the engines may assign
``seq`` in different orders); the network models guarantee this by
deriving event times from continuous quantities.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any


class Priority(IntEnum):
    """Coarse event classes used to break timestamp ties deterministically.

    Lower values run first at equal timestamps.  ``CONTROL`` events
    (e.g. GVT bookkeeping, stat flushes) run before model events so that
    windowed counters close their bins before new traffic is recorded.
    """

    CONTROL = 0
    NETWORK = 1
    MPI = 2
    WAKEUP = 3
    LOW = 9


class Event:
    """A timestamped message addressed to one logical process.

    Parameters
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    dst:
        Destination LP id.
    kind:
        Small string tag dispatched on by the LP's handler.
    data:
        Arbitrary payload (kept opaque by the kernel).
    priority:
        Tie-break class, see :class:`Priority`.
    src:
        Originating LP id (or ``-1`` for external/initial events).
    send_time:
        Time at which the event was scheduled; the windowing engines
        check the cross-partition lookahead contract against it.
    """

    __slots__ = ("time", "dst", "kind", "data", "priority", "src", "send_time", "seq")

    def __init__(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.NETWORK,
        src: int = -1,
        send_time: float = 0.0,
    ) -> None:
        self.time = time
        self.dst = dst
        self.kind = kind
        self.data = data
        self.priority = priority
        self.src = src
        self.send_time = send_time
        self.seq = -1  # assigned by the engine at scheduling time

    def __lt__(self, other: "Event") -> bool:
        """Heap ordering on ``(time, priority, seq)``.

        Branchy on purpose: almost all comparisons are decided by the
        timestamp alone, so the common case is two attribute loads and
        one float compare -- cheaper than building two key tuples.
        """
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def key(self) -> tuple[float, int, int]:
        """Total ordering key used by every engine's event queue."""
        return (self.time, self.priority, self.seq)

    def uid(self) -> tuple[float, int, int, int]:
        """Identity of one scheduled event across queues (anti-message
        matching in the Time Warp oracle under ``tests/pdes``)."""
        return (self.time, self.priority, self.seq, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(t={self.time:.9f}, dst={self.dst}, kind={self.kind!r}, "
            f"prio={int(self.priority)}, seq={self.seq})"
        )
