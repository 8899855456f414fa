"""Common engine interface shared by all schedulers."""

from __future__ import annotations

from typing import Any

from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP


class Engine:
    """Abstract discrete-event engine.

    Concrete engines differ only in *how* they order and commit events;
    the model-facing API (:meth:`register`, :meth:`schedule`,
    :meth:`schedule_at`, :meth:`run`, :attr:`now`) is identical, so a
    model written against :class:`Engine` runs unmodified on every
    scheduler.

    What *kind* of engine an instance is -- windowed or not, which
    backend runs its loop, whether the fabric and ranks are resident in
    the kernel -- is data on the instance (the attributes below) plus
    four hooks with no-op defaults (:meth:`adopt_fabric`,
    :meth:`adopt_ranks`, :meth:`bind_telemetry`, :meth:`describe`).
    The layers above call the hooks unconditionally and never ask an
    engine what class it is.
    """

    #: Number of partitions the engine executes over (1 when it does
    #: not window).  Model layers (e.g. the MPI runtime) consult this
    #: to co-locate their control LPs with the partitions they serve.
    n_partitions: int = 1
    #: YAWNS window width in seconds; ``None`` on an engine that does
    #: not window.  A windowing engine also keeps ``windows_executed``,
    #: ``max_window_events`` and ``committed_by_partition``.
    lookahead: float | None = None
    #: The :class:`~repro.parallel.partition.PartitionPlan` the engine
    #: was partitioned with, when a factory derived one.
    plan: Any = None
    #: Set on engines built through an ``accel-*`` preset: the backend
    #: that actually runs the loop (``"compiled"``/``"python"``),
    #: whether the network fabric is ``"resident"`` in the kernel or
    #: runs as ``"python"`` LPs, whether the SimMPI ranks are
    #: ``"resident"`` in the kernel or run in ``"python"``, and -- never
    #: empty when the answer is not the fast one -- why.
    backend: str | None = None
    backend_reason: str = ""
    fabric: str = "python"
    fabric_reason: str = ""
    ranks: str = "python"
    ranks_reason: str = ""

    #: Bit width reserved for the per-origin event counter in ``seq``
    #: (see :meth:`schedule_fast`): 2^40 events per origin before the
    #: packed keys of two origins could collide.
    SEQ_ORIGIN_SHIFT = 40

    def __init__(self) -> None:
        self.lps: list[LP] = []
        self.now: float = 0.0
        # Origin-scoped sequence numbers: ``seq`` is packed from the
        # identity of the LP whose handler scheduled the event (slot 0
        # is the environment -- model setup code running outside any
        # handler) and a per-origin counter.  Because the counter of an
        # origin advances only while that origin executes, the key
        # depends only on that origin's own schedule order -- which the
        # compiled kernel reproduces, so simultaneous events tie-break
        # identically on every engine.
        self._origin: int = -1
        self._origin_seq: list[int] = [0]
        self.events_processed: int = 0

    # -- topology of the model -------------------------------------------
    def register(self, lp: LP, partition: int | None = None) -> int:
        """Register one LP and return its id.

        ``partition`` pins the LP to one execution partition on engines
        that partition their LPs (the conservative engine); unpartitioned
        engines accept and ignore it, so model code can always pass the
        hint.
        """
        lp_id = len(self.lps)
        lp.bind(self, lp_id)
        self.lps.append(lp)
        self._origin_seq.append(0)
        return lp_id

    def partition_of(self, lp_id: int) -> int:
        """The partition executing ``lp_id`` (always 0 when unpartitioned)."""
        return 0

    # -- scheduling --------------------------------------------------------
    def schedule(
        self,
        delay: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.NETWORK,
        src: int = -1,
    ) -> Event:
        """Schedule an event ``delay`` seconds from the current time."""
        time = self.now + delay
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        if not 0 <= dst < len(self.lps):
            raise ValueError(f"unknown destination LP {dst}")
        return self.schedule_fast(time, dst, kind, data, priority, src)

    def schedule_at(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.NETWORK,
        src: int = -1,
    ) -> Event:
        """Schedule an event at absolute time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        if not 0 <= dst < len(self.lps):
            raise ValueError(f"unknown destination LP {dst}")
        return self.schedule_fast(time, dst, kind, data, priority, src)

    def schedule_fast(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.NETWORK,
        src: int = -1,
    ) -> Event:
        """Hot-path variant of :meth:`schedule_at` that skips argument
        re-validation.

        The network LPs schedule hundreds of thousands of events per
        simulated second against destinations the fabric wired up at
        construction time and timestamps derived from ``now`` plus
        non-negative delays; re-checking both on every call is pure
        overhead.  Callers must guarantee ``time >= now`` and a valid
        ``dst``.  Engine-specific safety checks that are part of the
        execution contract (e.g. the conservative engine's lookahead
        enforcement in ``_push``) still apply.
        """
        ev = Event(time, dst, kind, data, priority, src, send_time=self.now)
        slot = self._origin + 1
        c = self._origin_seq[slot]
        self._origin_seq[slot] = c + 1
        ev.seq = (slot << 40) | c
        self._push(ev)
        return ev

    def schedule_control(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.MPI,
        src: int = -1,
    ) -> Event:
        """Control-plane variant of :meth:`schedule_at`.

        For scheduler/driver actions that are *not* model messages --
        e.g. fanning a job launch out to per-partition driver LPs at the
        launch instant.  In a parallel PDES these travel out-of-band (a
        ROSS-style scheduler distributes launches at a synchronization
        point), so partitioned engines exempt this path from the
        cross-partition lookahead contract; on unpartitioned engines it
        is exactly :meth:`schedule_at`.
        """
        return self.schedule_at(time, dst, kind, data, priority, src)

    # -- what the layers above ask of every engine --------------------------
    def adopt_fabric(self, fabric: Any) -> None:
        """Called by :class:`~repro.network.fabric.NetworkFabric` at the
        end of its construction.  The compiled engine takes ownership of
        the fabric's state here; the others run its LPs as they are."""

    def adopt_ranks(self, mpi: Any) -> None:
        """Called by :meth:`SimMPI.start` (once, before the first event).
        The compiled engine takes over the runtime's rank progression --
        matching, requests, waits, compute wakeups -- or records why
        not; others: nothing."""

    def bind_telemetry(self, telemetry: Any) -> None:
        """Publish the engine's execution stats: a windowing engine's
        window count, width and per-partition commits as
        ``pdes.conservative.*`` observable gauges (closures over the
        live engine, evaluated at export time, registered with
        ``replace=True`` so a fresh engine on a shared telemetry
        session supersedes a finished one); nothing otherwise."""
        if self.lookahead is None:
            return
        t = telemetry
        t.gauge("pdes.conservative.partitions", unit="partitions", replace=True,
                doc="LP partitions the engine executes over",
                fn=lambda: self.n_partitions)
        t.gauge("pdes.conservative.window_width", unit="seconds", replace=True,
                doc="YAWNS window width (the lookahead)",
                fn=lambda: self.lookahead)
        t.gauge("pdes.conservative.windows", unit="windows", replace=True,
                doc="lookahead windows executed",
                fn=lambda: self.windows_executed)
        t.gauge("pdes.conservative.max_window_events", unit="events", replace=True,
                doc="events committed in the widest window",
                fn=lambda: self.max_window_events)
        for p in range(self.n_partitions):
            t.gauge(f"pdes.conservative.partition.{p}.committed", unit="events",
                    replace=True, doc=f"events committed by partition {p}",
                    fn=lambda p=p: self.committed_by_partition[p])

    def describe(self) -> dict[str, Any]:
        """What this run resolved, for the scenario JSON ``engine``
        stanza (next to the spec's own ``[engine]`` table): a windowing
        engine's ``partitions``/``lookahead``/``windows``/``scheme``,
        an ``accel-*`` engine's ``backend``/``backend_reason``/
        ``fabric``/``fabric_reason``/``ranks``/``ranks_reason``.  Empty
        for the plain sequential engine."""
        info: dict[str, Any] = {}
        if self.lookahead is not None:
            info["partitions"] = self.n_partitions
            info["lookahead"] = self.lookahead
            info["windows"] = self.windows_executed
            if self.plan is not None:
                info["scheme"] = self.plan.scheme
        if self.backend is not None:
            info["backend"] = self.backend
            info["backend_reason"] = self.backend_reason or None
            info["fabric"] = self.fabric
            info["fabric_reason"] = self.fabric_reason or None
            info["ranks"] = self.ranks
            info["ranks_reason"] = self.ranks_reason or None
        return info

    # -- to be provided by concrete engines ---------------------------------
    def _push(self, ev: Event) -> None:
        raise NotImplementedError

    def run(self, until: float = float("inf"), max_events: int | None = None) -> float:
        """Execute events until the queue drains, ``until`` is passed, or
        ``max_events`` have been committed.  Returns the final time."""
        raise NotImplementedError

    def step(self, until: float) -> float:
        """Advance the committed simulation to ``until`` and return the
        reached time.

        Engines are *resumable*: a sequence ``step(t1); step(t2)``
        commits the identical event sequence as one ``run(t2)`` (the
        stepping-parity contract, golden-tested for the sequential and
        conservative engines).  This is the building block of the
        session lifecycle (:class:`repro.union.session.SimulationSession`)
        -- advance a window, observe, decide, advance again.  ``until``
        is an absolute time and must not move backwards.
        """
        if until < self.now:
            raise ValueError(
                f"cannot step backwards: until={until} < now={self.now}"
            )
        return self.run(until=until)
