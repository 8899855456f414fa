"""The compiled engine: the C kernel behind the Engine API.

:class:`KernelEngine` wraps one kernel (:mod:`repro.accel.build`).
Windowing is a constructor argument, not a class: without a
``lookahead`` it is ``Kernel(0, 0.0)`` and commits like
:class:`~repro.pdes.sequential.SequentialEngine`; with one it runs
YAWNS windows over ``n_partitions`` (per-partition stats, lookahead
enforcement) like :class:`~repro.pdes.conservative.ConservativeEngine`.
The kernel owns ``now``, the seq counters and the pending heap, and the
engine syncs the public counters (``events_processed``,
``windows_executed``, ...) back to plain attributes after every run --
in a ``finally``, so post-mortem reads stay accurate when a handler
raises.  A :class:`~repro.network.fabric.NetworkFabric` built on it is
offered through :meth:`KernelEngine.adopt_fabric`; an adopted fabric is
*resident* in the kernel (:mod:`repro.accel.dispatch`) and the engine
says which it is: ``fabric`` (``"resident"`` or ``"python"``) and
``fabric_reason``, next to ``backend`` / ``backend_reason``.  The ranks
of a SimMPI on that fabric are offered through
:meth:`KernelEngine.adopt_ranks` when it starts: ``ranks`` /
``ranks_reason`` likewise.

The ``accel-*`` presets (:mod:`repro.registry.engines`) pick
compiled-else-fallback and never raise for a missing compiler.  The
fallback is the plain Python engine -- hence trivially bit-identical --
with ``backend = "python"`` and the reason recorded on the instance.

Determinism contract: the compiled engine commits the identical event
sequence -- same ``(time, priority, seq)`` keys, same RNG draw order,
bit-identical floats -- as its Python counterpart.  The kernel computes
in IEEE doubles in the same operation order and is built without
``-ffast-math``; the contract is pinned by the golden/parity oracles
and the fuzz ``parity`` invariant.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.accel.build import load_kernel
from repro.accel import dispatch
from repro.pdes.engine import Engine
from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP

__all__ = ["KernelEngine", "accel_sequential_engine"]


class KernelEngine(Engine):
    """Scheduling with the heap and the commit loop in C.

    Parameters are :class:`~repro.pdes.conservative.ConservativeEngine`'s
    (same meaning, same errors); ``lookahead=None`` selects the
    unwindowed loop and ignores the other two.  Raises
    :exc:`~repro.accel.build.AccelUnavailable` at construction when the
    kernel cannot be built; the ``accel-*`` presets fall back cleanly.
    """

    backend = "compiled"
    fabric_reason = "no NetworkFabric was built on this engine"
    ranks_reason = "no SimMPI was started on this engine"

    def __init__(
        self,
        lookahead: float | None = None,
        n_partitions: int = 4,
        partition_fn: Callable[[int], int] | None = None,
    ) -> None:
        if lookahead is None:
            n_partitions = 0
        else:
            # Validate before touching the kernel so bad arguments raise
            # the exact errors ConservativeEngine documents.
            if lookahead <= 0:
                raise ValueError(f"lookahead must be positive, got {lookahead}")
            if n_partitions < 1:
                raise ValueError(
                    f"need at least one partition, got {n_partitions}")
        mod = load_kernel()  # raises AccelUnavailable
        # Before Engine.__init__, which assigns ``self.now`` through
        # the property below.
        self._kernel = mod.Kernel(n_partitions, lookahead or 0.0)
        super().__init__()
        self.lookahead = lookahead
        self.n_partitions = n_partitions or 1
        self._partition_fn = partition_fn or (lambda lp_id: lp_id % self.n_partitions)
        self._part_of_lp: list[int] = []
        self.windows_executed = 0
        self.max_window_events = 0
        self.heap_peak = 0
        self.committed_by_partition: list[int] = [0] * n_partitions

    # -- the resident fabric -------------------------------------------------
    def adopt_fabric(self, fabric: Any) -> None:
        """Adopt ``fabric`` into the kernel if possible; otherwise
        record why its LPs stay on Python rows."""
        reason = dispatch.adopt(self._kernel, fabric,
                                self.fabric == "resident")
        self.fabric = "python" if reason else "resident"
        self.fabric_reason = reason

    def adopt_ranks(self, mpi: Any) -> None:
        """Run ``mpi``'s ranks in the kernel if possible; otherwise
        record why SimMPI's Python executor runs them."""
        reason = dispatch.adopt_ranks(self._kernel, mpi,
                                      self.ranks == "resident")
        self.ranks = "python" if reason else "resident"
        self.ranks_reason = reason

    def set_fabric_policy(self, fabric: Any, app_id: int | None, policy: Any) -> None:
        """The resident ``fabric`` changed the policy routing ``app_id``'s
        packets (``None``: its fabric-wide policy)."""
        dispatch.set_policy(self._kernel, fabric, app_id, policy)

    # -- model-facing API ----------------------------------------------------
    @property
    def now(self) -> float:
        # Live during native dispatch: handlers and queue probes called
        # back from C read the kernel clock mid-run.
        return self._kernel.now

    @now.setter
    def now(self, value: float) -> None:
        self._kernel.now = value

    def register(self, lp: LP, partition: int | None = None) -> int:
        lp_id = super().register(lp)
        if self.lookahead is None:
            part = 0
        else:
            part = self._partition_fn(lp_id) if partition is None else partition
        # Range-checked by the kernel when it windows.
        self._kernel.add_lp(part, lp.handle)
        self._part_of_lp.append(part)
        return lp_id

    def partition_of(self, lp_id: int) -> int:
        return self._part_of_lp[lp_id]

    def schedule_fast(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.NETWORK,
        src: int = -1,
    ) -> Event:
        # Event construction stays in Python (models hold event refs);
        # seq assignment and the heap push happen in the kernel, which
        # packs (origin + 1) << 40 | counter exactly like
        # Engine.schedule_fast and, when it windows, enforces the
        # lookahead contract exactly like ConservativeEngine._push.
        kern = self._kernel
        ev = Event(time, dst, kind, data, priority, src, send_time=kern.now)
        kern.push_event(ev, time, dst, priority)
        return ev

    def _push(self, ev: Event) -> None:
        raise NotImplementedError(
            "the compiled kernel owns the event heap; schedule through "
            "schedule_fast/schedule/schedule_at")

    def schedule_control(
        self,
        time: float,
        dst: int,
        kind: str,
        data: Any = None,
        priority: int = Priority.MPI,
        src: int = -1,
    ) -> Event:
        # Contract-exempt path: suspend the kernel's executing-partition
        # marker (which gates its push-side lookahead check), exactly as
        # ConservativeEngine.schedule_control suspends its own.
        kern = self._kernel
        saved = kern.current_partition
        kern.current_partition = -1
        try:
            return self.schedule_at(time, dst, kind, data, priority, src)
        finally:
            kern.current_partition = saved

    def peek_time(self) -> float:
        """Timestamp of the next pending event (``inf`` if drained)."""
        return self._kernel.peek_time()

    def run(self, until: float = float("inf"), max_events: int | None = None) -> float:
        kern = self._kernel
        budget = -1 if max_events is None else max_events
        try:
            kern.run(until, budget)
        finally:
            # Sync the public counters (telemetry gauges and scenario
            # reduction read them between runs / post-mortem).
            self.events_processed = kern.events_processed
            self.windows_executed = kern.windows_executed
            self.max_window_events = kern.max_window_events
            self.heap_peak = kern.heap_peak
            self.committed_by_partition = kern.committed_by_partition()
            self._origin = -1
        return kern.now


def accel_sequential_engine() -> Engine:
    """A fresh ``accel-sequential`` preset: the C kernel when it can be
    built, otherwise a plain ``SequentialEngine`` with
    ``backend_reason`` recording why.  Never raises for a missing
    compiler."""
    from repro.registry.engines import build_engine

    return build_engine({"type": "accel-sequential"}, None)
