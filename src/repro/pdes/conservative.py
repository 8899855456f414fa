"""Conservative (YAWNS-style) lookahead-window scheduler.

LPs are partitioned; the engine repeatedly computes the global floor
``T`` (minimum pending timestamp) and commits every event in the window
``[T, T + lookahead)`` before advancing to the next window.  Safety
rests on the model contract that *cross-partition* events carry at
least ``lookahead`` of delay, so anything a partition sends during the
window lands at or after the window boundary -- which is what lets a
parallel implementation execute the partitions of one window
concurrently with no further synchronization.  The contract is enforced
at scheduling time rather than assumed: a sub-lookahead cross-partition
event raises immediately, naming the offending event.

This mirrors how CODES/ROSS run in conservative (YAWNS) mode, where the
minimum link latency provides the lookahead.  Being a single-process
emulation, the engine commits each window's events in the deterministic
``(time, priority, seq)`` merge order -- the one serialization every
valid parallel execution of the window is equivalent to.  That makes a
conservative run *bit-identical* to a sequential run of the same model
(same committed event sequence, same RNG draw order), so the partition
plan, window advancement and per-partition commit streams can be
validated against sequential ground truth.  Partitioning the
network/MPI stack topology-aware lives in :mod:`repro.parallel`.

Scheduler control-plane actions that must cross partitions at the
current instant (e.g. fanning a job launch out to per-partition driver
LPs) go through :meth:`Engine.schedule_control`, which this engine
exempts from the contract -- in a parallel run those travel out-of-band
at a synchronization point, not as model messages.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.pdes import eventheap
from repro.pdes.engine import Engine
from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP


class ConservativeEngine(Engine):
    """Partitioned lookahead-window scheduler.

    Parameters
    ----------
    lookahead:
        Guaranteed minimum delay of cross-partition events (seconds).
    n_partitions:
        Number of partitions to emulate.
    partition_fn:
        Maps an LP id to a partition index at registration time;
        defaults to ``lp_id % n``.  A registration with an explicit
        ``partition=`` argument takes precedence (the idiom for control
        LPs the partition plan cannot know about).
    """

    def __init__(
        self,
        lookahead: float,
        n_partitions: int = 4,
        partition_fn: Callable[[int], int] | None = None,
    ) -> None:
        super().__init__()
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead}")
        if n_partitions < 1:
            raise ValueError(f"need at least one partition, got {n_partitions}")
        self.lookahead = lookahead
        self.n_partitions = n_partitions
        self._partition_fn = partition_fn or (lambda lp_id: lp_id % n_partitions)
        # One global heap of (time, priority, seq, Event) entries: the
        # leading key triple keeps heap comparisons at C speed (see the
        # note in pdes/sequential.py).  Windows are carved out of it by
        # timestamp; the partition of each LP is resolved once at
        # registration into _part_of_lp, so the per-event partition
        # lookup on the push (contract check) and pop (stats) paths is
        # a plain list index.
        self._queue: list[eventheap.Entry] = []
        self._part_of_lp: list[int] = []
        self._current_partition: int = -1
        self.windows_executed: int = 0
        #: Events committed per partition (the per-partition commit
        #: streams a parallel run would execute concurrently).
        self.committed_by_partition: list[int] = [0] * n_partitions
        #: Events committed in the widest window so far.
        self.max_window_events: int = 0

    # -- partitioning ------------------------------------------------------
    def register(self, lp: LP, partition: int | None = None) -> int:
        lp_id = super().register(lp)
        part = self._partition_fn(lp_id) if partition is None else partition
        if not 0 <= part < self.n_partitions:
            raise ValueError(
                f"LP {lp_id}: partition {part} outside "
                f"[0, {self.n_partitions})"
            )
        self._part_of_lp.append(part)
        return lp_id

    def partition_of(self, lp_id: int) -> int:
        return self._part_of_lp[lp_id]

    # -- scheduling --------------------------------------------------------
    def _push(self, ev: Event) -> None:
        dst_part = self._part_of_lp[ev.dst]
        if (
            self._current_partition >= 0
            and dst_part != self._current_partition
            and ev.time < ev.send_time + self.lookahead
        ):
            raise RuntimeError(
                f"lookahead violation: cross-partition event {ev!r} scheduled "
                f"with delay {ev.time - ev.send_time:.3e} < lookahead "
                f"{self.lookahead:.3e}"
            )
        eventheap.push(self._queue, ev)

    def schedule_control(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.MPI,
        src: int = -1,
    ) -> Event:
        # Contract-exempt path: suspend the executing-partition marker
        # (which gates the check in _push) around the validated enqueue.
        saved = self._current_partition
        self._current_partition = -1
        try:
            return self.schedule_at(time, dst, kind, data, priority, src)
        finally:
            self._current_partition = saved

    # -- execution ---------------------------------------------------------
    def peek_time(self) -> float:
        """Timestamp of the next pending event (``inf`` if drained)."""
        return eventheap.peek_time(self._queue)

    def commit_window(self, window_end: float, until: float = float("inf"),
                      budget: int = -1) -> tuple[int, bool]:
        """Commit every pending event in ``[heap floor, window_end)``.

        The YAWNS window core: events are committed in the
        deterministic ``(time, priority, seq)`` merge order -- including
        events a handler schedules into the remainder of the window --
        stopping at ``window_end``, at the ``until`` horizon (events
        beyond it stay pending), or when ``budget`` more events have
        been committed (``-1`` = unlimited).  Returns ``(committed,
        budget_hit)``.  The compiled kernel's ``run_loop`` mirrors this
        body, budget and exception bookkeeping included, so both
        backends commit the same events in the same order.
        """
        q = self._queue
        pop = heapq.heappop
        lps = self.lps
        parts = self._part_of_lp
        per_part = self.committed_by_partition
        committed = 0
        budget_hit = False
        try:
            while q:
                t = q[0]
                time = t[0]
                if time >= window_end or time > until:
                    break
                pop(q)
                ev = t[3]
                part = parts[ev.dst]
                self._current_partition = part
                self._origin = ev.dst
                self.now = time
                lps[ev.dst].handle(ev)
                per_part[part] += 1
                committed += 1
                if committed == budget:
                    budget_hit = True
                    break
        finally:
            # Leave the engine re-runnable on *every* exit path,
            # including a handler raising mid-window: clear the
            # executing-partition marker (it gates the lookahead check
            # in _push) and the seq origin, and count what committed
            # here, where a raise cannot lose the partial window
            # (post-mortem reporting reads events_processed).
            self._current_partition = -1
            self._origin = -1
            self.events_processed += committed
        return committed, budget_hit

    def run(self, until: float = float("inf"), max_events: int | None = None) -> float:
        # ``committed == budget`` is the stop condition, so an unlimited
        # run uses -1 (never equal) and ``max_events=0`` commits nothing.
        budget = -1 if max_events is None else max_events
        budget_hit = budget == 0
        committed = 0
        q = self._queue
        lookahead = self.lookahead
        while q and not budget_hit:
            floor = q[0][0]
            if floor > until:
                break  # nothing left inside the horizon
            window_end = floor + lookahead
            self.windows_executed += 1
            window_events, budget_hit = self.commit_window(
                window_end, until, -1 if budget < 0 else budget - committed
            )
            committed += window_events
            if window_events > self.max_window_events:
                self.max_window_events = window_events
        if not budget_hit and self.now < until < float("inf"):
            self.now = until
        return self.now
