"""The ``mp-conservative`` master engine.

:class:`MpConservativeEngine` is a :class:`~repro.pdes.conservative.
ConservativeEngine` that, once a model recipe is bound, stops executing
events itself and instead coordinates one worker process per partition
(see :mod:`repro.parallel.mp.worker` for the protocol).  The master
keeps the global clock, the window loop and every aggregate statistic;
workers keep the event heaps.

Execution mode is decided once, at the first ``run``/``step``, and is
sticky:

``distributed``
    The model was distributable and the workers launched.  The master's
    own heap is discarded (the workers hold replicated copies), windows
    are driven remotely, and worker state is merged back at the end of
    every run/step so observations and reductions read sequential-
    equivalent values.
``local``
    Clean fallback: the engine behaves exactly like its superclass (the
    single-process YAWNS emulation), with the reason recorded in
    ``fallback_reason``.  Triggers: no recipe bound (``bind_model_source``
    never called, or the model failed an eligibility rule), a worker
    launch failure (e.g. spawning is impossible inside daemonic pool
    workers), or a ``max_events`` budget on the first run -- the event
    budget is a global stop condition that cannot be enforced across
    asynchronous workers without serializing them, so budgeted runs
    keep the bit-identical single-process path.

A ``max_events`` budget *after* distributed execution has begun raises:
the master no longer holds the events needed to continue locally.
"""

from __future__ import annotations

from math import inf
from typing import Any

from repro.parallel.mp.channels import MP_BACKENDS, WorkerFailure
from repro.parallel.mp.merge import capture_base, merge_into_master
from repro.parallel.mp.recipe import extract_recipe
from repro.pdes.conservative import ConservativeEngine
from repro.pdes.event import Event


class MpConservativeEngine(ConservativeEngine):
    """Conservative engine that runs partitions in worker processes."""

    ranks_reason = "the mp layout runs every rank in Python, in its workers"

    def __init__(
        self,
        lookahead: float,
        n_partitions: int = 4,
        partition_fn=None,
        backend: str = "mp",
    ) -> None:
        super().__init__(lookahead, n_partitions=n_partitions, partition_fn=partition_fn)
        if backend not in MP_BACKENDS:
            raise ValueError(
                f"unknown mp backend {backend!r}; expected one of {list(MP_BACKENDS)}"
            )
        self.backend_name = backend
        #: Why the engine fell back to single-process execution
        #: (``None`` while undecided or distributed).
        self.fallback_reason: str | None = None
        self._mode: str | None = None
        self._backend = None
        self._session = None
        self._recipe_blob: bytes | None = None
        #: Per-partition local floors, refreshed from every reply.
        self._floors: list[float] = []
        #: Events / message-open records that crossed partitions last
        #: window, held for delivery with the next window message.
        self._held_events: list[list[Event]] = [[] for _ in range(n_partitions)]
        self._held_opens: list[list[tuple]] = [[] for _ in range(n_partitions)]
        self._base: dict | None = None
        self._fired: set[int] = set()

    # -- wiring ------------------------------------------------------------
    @property
    def execution_mode(self) -> str:
        """``"distributed"``, ``"local"``, or ``"undecided"``."""
        return self._mode or "undecided"

    def bind_model_source(self, session) -> None:
        """Distill the built ``session`` into the recipe workers rebuild
        the model from.  A model that is not distributable has none;
        why becomes ``fallback_reason``."""
        self._session = session
        self._recipe_blob, reason = extract_recipe(session)
        if self._recipe_blob is None and self._mode is None:
            self._mode = "local"
            self.fallback_reason = reason

    def describe(self) -> dict[str, Any]:
        # Whether the run actually distributed, and if not, the
        # user-facing reason it fell back.
        info = super().describe()
        info["mode"] = self.execution_mode
        info["fallback"] = self.fallback_reason
        info["ranks"] = self.ranks
        info["ranks_reason"] = self.ranks_reason
        return info

    # -- mode decision -----------------------------------------------------
    def _launch(self) -> None:
        if self._recipe_blob is None:
            self._mode = "local"
            if self.fallback_reason is None:
                self.fallback_reason = (
                    "no model recipe bound: the engine was not built through "
                    "a SimulationSession, so there is nothing to ship to workers"
                )
            return
        backend = None
        try:
            backend = MP_BACKENDS[self.backend_name]()
            backend.launch(self._recipe_blob, self.n_partitions)
            floors = []
            for p in range(self.n_partitions):
                backend.send(p, ("floor",))
            for p in range(self.n_partitions):
                floors.append(backend.recv(p)[1])
        except Exception as exc:
            # The master heap is still intact -- nothing has executed --
            # so a failed launch degrades to the single-process path.
            if backend is not None:
                try:
                    backend.shutdown()
                except Exception:  # pragma: no cover - best effort
                    pass
            self._mode = "local"
            self.fallback_reason = f"worker launch failed: {exc}"
            return
        self._backend = backend
        self._mode = "distributed"
        self._floors = floors
        # Base snapshot before any window: the common ancestor every
        # worker diverged from (see repro.parallel.mp.merge).
        self._base = capture_base(self._session)
        # The workers hold replicated copies of everything in the master
        # heap; from here on the master only coordinates.
        self._queue.clear()

    # -- execution ---------------------------------------------------------
    def run(self, until: float = inf, max_events: int | None = None) -> float:
        if self._mode == "distributed":
            if max_events is not None:
                raise RuntimeError(
                    "mp-conservative: a max_events budget cannot be applied "
                    "after distributed execution has started -- budgeted runs "
                    "must pass max_events on the first run/step, which keeps "
                    "the whole run single-process"
                )
            return self._run_distributed(until)
        if self._mode is None:
            if max_events is not None:
                self._mode = "local"
                self.fallback_reason = (
                    "max_events budget: the event-count stop condition is "
                    "global, so budgeted runs execute single-process"
                )
            else:
                self._launch()
        if self._mode == "local":
            return super().run(until=until, max_events=max_events)
        return self._run_distributed(until)

    def _global_floor(self) -> float:
        """Minimum of worker floors and held (in-transit) event times."""
        floor = min(self._floors) if self._floors else inf
        for events in self._held_events:
            for ev in events:
                if ev.time < floor:
                    floor = ev.time
        return floor

    def _run_distributed(self, until: float) -> float:
        if self._backend is None:
            raise RuntimeError(
                "mp-conservative: workers have been shut down; the "
                "distributed run cannot be resumed"
            )
        be = self._backend
        n = self.n_partitions
        try:
            while True:
                floor = self._global_floor()
                if floor == inf or floor > until:
                    break
                window_end = floor + self.lookahead
                self.windows_executed += 1
                for p in range(n):
                    be.send(
                        p,
                        ("window", window_end, until,
                         self._held_events[p], self._held_opens[p]),
                    )
                    self._held_events[p] = []
                    self._held_opens[p] = []
                window_total = 0
                newest = self.now
                for p in range(n):
                    _tag, counted, outbox, opens, next_floor, w_now = be.recv(p)
                    for dst_part, events in outbox.items():
                        self._held_events[dst_part].extend(events)
                    for dst_part, records in opens.items():
                        self._held_opens[dst_part].extend(records)
                    self._floors[p] = next_floor
                    self.committed_by_partition[p] += counted
                    window_total += counted
                    if w_now > newest:
                        newest = w_now
                self.events_processed += window_total
                if window_total > self.max_window_events:
                    self.max_window_events = window_total
                self.now = newest
            if self.now < until < inf:
                self.now = until
            self._collect()
        except WorkerFailure:
            # The backend already tore the remaining workers down.
            self._backend = None
            raise
        self._run_end_hooks()
        return self.now

    def _collect(self) -> None:
        be = self._backend
        for p in range(self.n_partitions):
            be.send(p, ("collect",))
        snaps = [be.recv(p)[1] for p in range(self.n_partitions)]
        merge_into_master(self._session, self._base, snaps, self._held_opens,
                          self._fired)

    def close(self) -> None:
        """Exit and reap the worker processes (idempotent).

        Called by the session at finalize; all state has been merged by
        then, so this only releases processes.  No-op for local runs.
        """
        be = self._backend
        self._backend = None
        if be is None:
            return
        try:
            for p in range(self.n_partitions):
                be.send(p, ("exit",))
            for p in range(self.n_partitions):
                be.recv(p)
        except Exception:  # pragma: no cover - workers already gone
            pass
        be.shutdown()

