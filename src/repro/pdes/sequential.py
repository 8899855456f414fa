"""Deterministic single-queue event scheduler.

This is the engine the network experiments run on.  One binary heap of
``(time, priority, seq, Event)`` entries: the leading key triple is
decided at C speed (``seq`` is unique, so a comparison never reaches
the ``Event`` element), which measures 15-20% faster end-to-end than
heaping raw events through the Python-level ``Event.__lt__``.

No speculation -- every committed event is final, which makes metric
collection trivially correct.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.pdes import eventheap
from repro.pdes.engine import Engine
from repro.pdes.event import Event, Priority


class SequentialEngine(Engine):
    """Classic event-driven simulation loop over a binary heap."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: list[eventheap.Entry] = []

    def _push(self, ev: Event) -> None:
        # Engine-contract enqueue.  The schedule_fast override below
        # inlines this push for speed, so instrumenting _push alone does
        # not observe hot-path traffic on this engine.
        eventheap.push(self._queue, ev)

    def schedule_fast(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.NETWORK,
        src: int = -1,
    ) -> Event:
        # Flattened override of Engine.schedule_fast: the base class
        # documents the contract; this engine inlines construction and
        # push to drop two call frames from the hottest path in the tree.
        ev = Event(time, dst, kind, data, priority, src, self.now)
        slot = self._origin + 1
        counters = self._origin_seq
        c = counters[slot]
        counters[slot] = c + 1
        seq = ev.seq = (slot << 40) | c
        heapq.heappush(self._queue, (time, priority, seq, ev))
        return ev

    def empty(self) -> bool:
        return not self._queue

    def peek_time(self) -> float:
        """Timestamp of the next pending event (``inf`` if drained)."""
        return eventheap.peek_time(self._queue)

    def run(self, until: float = float("inf"), max_events: int | None = None) -> float:
        q = self._queue
        pop = heapq.heappop
        lps = self.lps
        # ``committed == budget`` is the stop condition, so an unlimited
        # run uses -1 (never equal) and ``max_events=0`` commits nothing.
        budget = -1 if max_events is None else max_events
        budget_hit = budget == 0
        committed = 0
        try:
            while q and not budget_hit:
                t = q[0]
                if t[0] > until:
                    break
                pop(q)
                ev = t[3]
                self.now = t[0]
                self._origin = ev.dst
                lps[ev.dst].handle(ev)
                committed += 1
                if committed == budget:
                    budget_hit = True
        finally:
            # Keep the committed-event count accurate even when a
            # handler raises mid-run (post-mortem reporting reads it),
            # and reset the seq origin to the environment slot.
            self._origin = -1
            self.events_processed += committed
        if not budget_hit and self.now < until < float("inf"):
            # Stopped at the horizon (drained or future events only): advance
            # the clock to the horizon so windowed statistics cover the full
            # requested interval.  A budget stop keeps the last event time.
            self.now = until
        return self.now
