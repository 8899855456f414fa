"""Optimistic (Time Warp) scheduler with rollback and GVT.

This emulates ROSS's optimistic mode inside one process: each LP is
advanced greedily in round-robin order, exactly as if every LP had its
own processor.  An LP may therefore run ahead of its peers; when a
*straggler* (an event older than the LP's local virtual time) arrives,
the LP rolls back:

1. restore the newest saved state older than the straggler,
2. return the rolled-back processed events to the pending queue,
3. cancel every event it sent from the rolled-back region by delivering
   *anti-messages*, which may trigger secondary rollbacks downstream.

Global Virtual Time (GVT) -- the minimum timestamp any LP could still
roll back to -- advances monotonically; state/history older than GVT is
*fossil collected*.  Statistics reported by the engine
(``events_processed``) count committed events only.

A test-side reference oracle, not a product engine: no LP of the
network/MPI stack can save or restore its state, so nothing under
``src/`` can run on it.  It reproduces the ROSS layer of the paper's
stack for PHOLD, where it cross-validates the product engines
(``test_engine_parity.py``, ``test_budget.py``); LPs it runs provide
``save_state()`` / ``load_state(state)`` themselves.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.pdes import eventheap
from repro.pdes.engine import Engine
from repro.pdes.event import Event


class _LpRuntime:
    """Bookkeeping the optimistic scheduler keeps per LP."""

    __slots__ = ("pending", "processed", "sent", "lvt")

    def __init__(self) -> None:
        # min-heap in the shared eventheap entry layout; the leading key
        # triple keeps heap comparisons at C speed.
        self.pending: list[eventheap.Entry] = []
        # chronological list of (Event, state-before) pairs
        self.processed: list[tuple[Event, Any]] = []
        # chronological list of events this LP emitted (for anti-messages)
        self.sent: list[Event] = []
        self.lvt: float = 0.0


class TimeWarpEngine(Engine):
    """Single-process emulation of a Time Warp optimistic scheduler.

    Parameters
    ----------
    gvt_interval:
        Number of scheduler rounds between GVT computations / fossil
        collections.
    """

    def __init__(self, gvt_interval: int = 64) -> None:
        super().__init__()
        if gvt_interval < 1:
            raise ValueError(f"gvt_interval must be >= 1, got {gvt_interval}")
        self.gvt_interval = gvt_interval
        self._rt: list[_LpRuntime] = []
        self._current_lp: int = -1
        self.gvt: float = 0.0
        self.rollbacks: int = 0
        self.anti_messages: int = 0
        self.events_executed: int = 0  # including later-rolled-back work

    # -- engine plumbing -----------------------------------------------------
    def register(self, lp, partition: int | None = None) -> int:
        lp_id = super().register(lp, partition)
        self._rt.append(_LpRuntime())
        return lp_id

    def _push(self, ev: Event) -> None:
        rt = self._rt[ev.dst]
        if self._current_lp >= 0:
            self._rt[self._current_lp].sent.append(ev)
        eventheap.push(rt.pending, ev)
        if ev.time < rt.lvt:
            # Straggler: the destination already executed past this time.
            self._rollback(ev.dst, ev.time)

    # -- rollback machinery ----------------------------------------------------
    def _rollback(self, lp_id: int, to_time: float) -> None:
        """Undo every event of ``lp_id`` with timestamp >= ``to_time``."""
        rt = self._rt[lp_id]
        if not rt.processed or rt.processed[-1][0].time < to_time:
            return
        self.rollbacks += 1
        # Find the first processed entry at/after the straggler time.
        lo, hi = 0, len(rt.processed)
        while lo < hi:
            mid = (lo + hi) // 2
            if rt.processed[mid][0].time < to_time:
                lo = mid + 1
            else:
                hi = mid
        undone = rt.processed[lo:]
        del rt.processed[lo:]
        # Restore the state saved just before the oldest undone event.
        self.lps[lp_id].load_state(undone[0][1])
        rt.lvt = rt.processed[-1][0].time if rt.processed else 0.0
        # Re-queue the undone input events.
        for ev, _state in undone:
            eventheap.push(rt.pending, ev)
        # Cancel outputs emitted from the undone region.
        cancel_from = undone[0][0].time
        keep: list[Event] = []
        to_cancel: list[Event] = []
        for out in rt.sent:
            (to_cancel if out.send_time >= cancel_from else keep).append(out)
        rt.sent = keep
        for out in to_cancel:
            self._annihilate(out)

    def _annihilate(self, ev: Event) -> None:
        """Deliver an anti-message for ``ev``: remove it wherever it is."""
        self.anti_messages += 1
        rt = self._rt[ev.dst]
        uid = ev.uid()
        # Case 1: still pending -- drop it from the queue.
        for i, (_, _, _, pend) in enumerate(rt.pending):
            if pend.uid() == uid:
                rt.pending[i] = rt.pending[-1]
                rt.pending.pop()
                heapq.heapify(rt.pending)
                return
        # Case 2: already processed -- secondary rollback, then drop it.
        for i, (done, _state) in enumerate(rt.processed):
            if done.uid() == uid:
                self._rollback(ev.dst, done.time)
                # The rollback re-queued it as pending; remove it now.
                for j, (_, _, _, pend) in enumerate(rt.pending):
                    if pend.uid() == uid:
                        rt.pending[j] = rt.pending[-1]
                        rt.pending.pop()
                        heapq.heapify(rt.pending)
                        return
                raise AssertionError("annihilated event vanished during rollback")
        # Case 3: already annihilated (positive message never arrived first
        # is impossible in-process) -- nothing to do.

    # -- GVT / fossil collection -------------------------------------------------
    def _compute_gvt(self) -> float:
        gvt = float("inf")
        for rt in self._rt:
            if rt.pending:
                gvt = min(gvt, rt.pending[0][0])
        return gvt

    def _fossil_collect(self, gvt: float) -> None:
        for rt in self._rt:
            lo = 0
            while lo < len(rt.processed) and rt.processed[lo][0].time < gvt:
                lo += 1
            if lo:
                self.events_processed += lo
                del rt.processed[:lo]
            rt.sent = [ev for ev in rt.sent if ev.send_time >= gvt]

    # -- main loop ------------------------------------------------------------------
    def run(self, until: float = float("inf"), max_events: int | None = None) -> float:
        # ``executed == budget`` is the stop condition, so an unlimited
        # run uses -1 (never equal) and ``max_events=0`` commits nothing.
        budget = -1 if max_events is None else max_events
        if budget == 0:
            self._run_end_hooks()
            return self.now
        executed = 0
        rounds = 0
        n = len(self.lps)
        while True:
            progressed = False
            for lp_id in range(n):
                rt = self._rt[lp_id]
                if not rt.pending or rt.pending[0][0] > until:
                    continue
                ev = heapq.heappop(rt.pending)[3]
                state = self.lps[lp_id].save_state()
                self.now = ev.time
                self._current_lp = lp_id
                self._origin = lp_id
                self.lps[lp_id].handle(ev)
                self._current_lp = -1
                self._origin = -1
                rt.processed.append((ev, state))
                rt.lvt = ev.time
                self.events_executed += 1
                executed += 1
                progressed = True
                if executed == budget:
                    self._finalize(until)
                    return self.now
            rounds += 1
            if rounds % self.gvt_interval == 0:
                gvt = self._compute_gvt()
                self.gvt = min(gvt, until)
                self._fossil_collect(self.gvt)
            if not progressed:
                break
        self._finalize(until)
        return self.now

    def _finalize(self, until: float) -> None:
        self.gvt = min(self._compute_gvt(), until) if until < float("inf") else self._compute_gvt()
        self._fossil_collect(float("inf"))
        committed = [rt.lvt for rt in self._rt if rt.lvt > 0.0]
        self.now = max(committed) if committed else self.now
        if self.now < until < float("inf"):
            self.now = until
        self._run_end_hooks()
