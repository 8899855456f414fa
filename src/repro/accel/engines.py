"""Accelerated engines: the compiled kernel behind the Engine API.

Two compiled engines wrap the C kernel (:mod:`repro.accel.build`):

:class:`AccelSequentialEngine`
    :class:`~repro.pdes.sequential.SequentialEngine` semantics with the
    heap and commit loop in C.
:class:`AccelConservativeEngine`
    :class:`~repro.pdes.conservative.ConservativeEngine` semantics
    (YAWNS windows, per-partition stats, lookahead enforcement) with
    the window loop in C.

Both subclass their Python counterpart, so every ``isinstance`` gate in
the tree (telemetry gauges, scenario reduction) keeps working; the
kernel owns ``now``, the seq counters and the pending heap, and the
engine syncs the public counters (``events_processed``,
``windows_executed``, ...) back to plain attributes after every run --
in a ``finally``, so post-mortem reads stay accurate when a handler
raises.  A :class:`~repro.network.fabric.NetworkFabric` built on a
compiled engine asks it to :meth:`~_CompiledMixin.adopt_fabric`; an
adopted fabric is *resident* in the kernel (:mod:`repro.accel.dispatch`)
and the engine says which it is: ``fabric`` (``"resident"`` or
``"python"``) and ``fabric_reason``, next to ``backend`` /
``backend_reason``.

:class:`PythonSequentialEngine` / :class:`PythonConservativeEngine` are
the fallback backends: behaviorally the plain Python engines (hence
trivially bit-identical), plus the ``backend``/``backend_reason``
surface the scenario JSON records.  The factories
(:func:`accel_sequential_engine` / :func:`accel_conservative_engine`)
pick compiled-else-fallback and never raise for a missing compiler.

Determinism contract: a compiled engine commits the identical event
sequence -- same ``(time, priority, seq)`` keys, same RNG draw order,
bit-identical floats -- as its Python counterpart.  The kernel computes
in IEEE doubles in the same operation order and is built without
``-ffast-math``; the contract is pinned by the golden/parity oracles
and the fuzz ``parity`` invariant.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.accel.build import AccelUnavailable, load_kernel
from repro.accel import dispatch
from repro.pdes.conservative import ConservativeEngine
from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP
from repro.pdes.sequential import SequentialEngine

__all__ = [
    "AccelSequentialEngine",
    "AccelConservativeEngine",
    "PythonSequentialEngine",
    "PythonConservativeEngine",
    "accel_sequential_engine",
    "accel_conservative_engine",
]

BACKENDS = ("compiled", "python")


class _CompiledMixin:
    """The kernel-owning half shared by both compiled engines.

    Must precede the Python engine class in the MRO; ``self._kernel``
    is created by the concrete ``__init__`` *before* calling
    ``super().__init__()`` (which assigns ``self.now`` through the
    property below).
    """

    backend = "compiled"
    backend_reason = ""
    #: Whether the network fabric on this engine is resident in the
    #: kernel, and if not, why its LPs run on generic Python rows.
    fabric = "python"
    fabric_reason = "no NetworkFabric was built on this engine"

    def adopt_fabric(self, fabric: Any) -> Any:
        """Called by :class:`NetworkFabric` at the end of construction:
        adopt it into the kernel if possible.  Returns the kernel (the
        fabric's per-message seams call into it) or ``None``."""
        reason = dispatch.adopt(self._kernel, fabric,
                                self.fabric == "resident")
        self.fabric = "python" if reason else "resident"
        self.fabric_reason = reason
        return None if reason else self._kernel

    def set_fabric_policy(self, fabric: Any, app_id: int | None, policy: Any) -> None:
        """The resident ``fabric`` changed the policy routing ``app_id``'s
        packets (``None``: its fabric-wide policy)."""
        dispatch.set_policy(self._kernel, fabric, app_id, policy)

    @property
    def now(self) -> float:
        # Live during native dispatch: handlers and queue probes called
        # back from C read the kernel clock mid-run.
        return self._kernel.now

    @now.setter
    def now(self, value: float) -> None:
        self._kernel.now = value

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
        # Engine.schedule_fast.
        kern = self._kernel
        ev = Event(time, dst, kind, data, priority, src, send_time=kern.now)
        kern.push_event(ev, time, dst, priority)
        return ev

    def _push(self, ev: Event) -> None:
        raise NotImplementedError(
            "the compiled kernel owns the event heap; schedule through "
            "schedule_fast/schedule/schedule_at")

    def empty(self) -> bool:
        return self._kernel.empty()

    def peek_time(self) -> float:
        """Timestamp of the next pending event (``inf`` if drained)."""
        return self._kernel.peek_time()


class AccelSequentialEngine(_CompiledMixin, SequentialEngine):
    """Sequential scheduling with the heap + commit loop in C.

    Raises :exc:`AccelUnavailable` at construction when the kernel
    cannot be built; use :func:`accel_sequential_engine` for the
    fall-back-cleanly behavior.
    """

    def __init__(self) -> None:
        mod = load_kernel()  # raises AccelUnavailable
        self._kernel = mod.Kernel(0, 0.0)
        super().__init__()

    def register(self, lp: LP, partition: int | None = None) -> int:
        lp_id = super().register(lp, partition)
        self._kernel.add_lp(0, lp.handle)
        return lp_id

    def run(self, until: float = float("inf"), max_events: int | None = None) -> float:
        kern = self._kernel
        budget = -1 if max_events is None else max_events
        try:
            kern.run(until, budget)
        finally:
            self.events_processed = kern.events_processed
            self._origin = -1
        self._run_end_hooks()
        return kern.now


class AccelConservativeEngine(_CompiledMixin, ConservativeEngine):
    """Conservative (YAWNS) scheduling with the window loop in C.

    Raises :exc:`AccelUnavailable` at construction when the kernel
    cannot be built; use :func:`accel_conservative_engine` for the
    fall-back-cleanly behavior.
    """

    def __init__(
        self,
        lookahead: float,
        n_partitions: int = 4,
        partition_fn: Callable[[int], int] | None = None,
    ) -> None:
        # Validate before touching the kernel so bad arguments raise
        # the exact errors ConservativeEngine documents.
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead}")
        if n_partitions < 1:
            raise ValueError(f"need at least one partition, got {n_partitions}")
        mod = load_kernel()  # raises AccelUnavailable
        self._kernel = mod.Kernel(n_partitions, lookahead)
        super().__init__(lookahead, n_partitions, partition_fn)

    def register(self, lp: LP, partition: int | None = None) -> int:
        lp_id = super().register(lp, partition)
        self._kernel.add_lp(self._part_of_lp[lp_id], lp.handle)
        return lp_id

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

    def pending_floor(self) -> float:
        return self._kernel.peek_time()

    def commit_window(self, window_end: float, until: float = float("inf"),
                      budget: int = -1) -> tuple[int, bool]:
        raise NotImplementedError(
            "the compiled kernel commits whole windows internally; "
            "drive it through run()/step()")

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
            self.committed_by_partition = kern.committed_by_partition()
            self._origin = -1
            self._current_partition = -1
        self._run_end_hooks()
        return kern.now


class PythonSequentialEngine(SequentialEngine):
    """The ``backend: python`` fallback: a plain sequential engine that
    records which backend ran and why."""

    backend = "python"
    backend_reason = "backend 'python' requested"
    fabric = "python"
    fabric_reason = "the python backend runs every LP in Python"


class PythonConservativeEngine(ConservativeEngine):
    """The ``backend: python`` fallback of the conservative engine."""

    backend = "python"
    backend_reason = "backend 'python' requested"
    fabric = "python"
    fabric_reason = PythonSequentialEngine.fabric_reason


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown accel backend {backend!r}; choose from {BACKENDS}")


def accel_sequential_engine(backend: str = "compiled") -> SequentialEngine:
    """An accelerated sequential engine, falling back cleanly.

    ``backend="compiled"`` uses the C kernel when it can be built and
    otherwise returns the Python fallback with
    ``backend_reason`` recording why; ``backend="python"`` forces the
    fallback.  Never raises for a missing compiler.
    """
    _check_backend(backend)
    if backend == "python":
        return PythonSequentialEngine()
    try:
        return AccelSequentialEngine()
    except AccelUnavailable as exc:
        eng = PythonSequentialEngine()
        eng.backend_reason = str(exc)
        return eng


def accel_conservative_engine(
    topo: Any,
    config: Any = None,
    partitions: int = 4,
    lookahead: float | None = None,
    backend: str = "compiled",
) -> ConservativeEngine:
    """An accelerated conservative engine partitioned for ``topo``.

    Reuses :func:`repro.parallel.conservative_engine` for the partition
    plan and lookahead derivation (structural errors -- too many
    partitions, an unjustifiable lookahead -- surface identically);
    only the scheduler core differs by backend.
    """
    from repro.parallel import conservative_engine

    _check_backend(backend)
    if backend == "compiled":
        try:
            load_kernel()
        except AccelUnavailable as exc:
            eng = conservative_engine(topo, config, partitions, lookahead,
                                      engine_cls=PythonConservativeEngine)
            eng.backend_reason = str(exc)
            return eng
        return conservative_engine(topo, config, partitions, lookahead,
                                   engine_cls=AccelConservativeEngine)
    return conservative_engine(topo, config, partitions, lookahead,
                               engine_cls=PythonConservativeEngine)
