"""Engine registry: PDES execution engines as named presets over three axes.

The paper runs its simulations on CODES/ROSS, where sequential and
conservative (YAWNS) execution are modes of one engine; this registry
makes the execution engine a pluggable component like topologies and
routings, so a scenario's ``[engine]`` table, the CLI's
``--engine``/``--partitions`` flags and
:class:`~repro.union.manager.WorkloadManager`'s ``engine`` parameter
all resolve through one roster.  An engine is a point on three axes --

``windowing``
    ``none`` (one queue, commit in key order) or ``yawns`` (LPs split
    topology-aware -- whole dragonfly groups / fat-tree pods / torus
    slabs per partition -- and committed in lookahead windows; the
    lookahead derives from the minimum cross-partition link latency
    unless ``lookahead`` pins a tighter value).
``backend``
    ``python`` or ``compiled`` (the loop in the :mod:`repro.accel` C
    kernel; a host that cannot build it falls back to the
    bit-identical Python engine with the reason recorded, and
    ``backend = "python"`` in the table forces that).
``layout``
    ``in-process`` or ``mp`` (one worker process per partition,
    cross-partition events exchanged at window boundaries; models that
    cannot be distributed fall back to single-process execution with
    the reason recorded).

-- and the roster names the five points that exist (``docs/engines.md``
has the table).  Every preset commits the identical event sequence.

Engine factories need the live topology (and link config) to build
their partition plan, so :func:`build_engine` takes both -- unlike
topology specs, an engine table cannot be instantiated standalone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.network.config import NetworkConfig
from repro.pdes.engine import Engine
from repro.pdes.sequential import SequentialEngine
from repro.registry.core import ComponentSpec, Param, Registry, _err


#: The axes and their values, first value = the default.
ENGINE_AXES = {
    "windowing": ("none", "yawns"),
    "backend": ("python", "compiled"),
    "layout": ("in-process", "mp"),
}


def engine_axes(**chosen: str) -> dict[str, str]:
    """A point on :data:`ENGINE_AXES`: the defaults, except ``chosen``."""
    axes = {axis: values[0] for axis, values in ENGINE_AXES.items()}
    for axis, value in chosen.items():
        if value not in ENGINE_AXES[axis]:
            raise ValueError(f"no {axis}={value!r} in {ENGINE_AXES[axis]}")
        axes[axis] = value
    return axes


@dataclass(frozen=True)
class EngineSpec(ComponentSpec):
    """One registered PDES engine.

    A preset states its ``axes`` and is built by :func:`_build_preset`;
    an engine from outside the roster brings its own
    ``factory(topo, config, **params) -> Engine``.  Either way a fresh
    engine is built for each simulation: engines hold per-run LP state,
    so they are never shared between runs.
    """

    axes: Mapping[str, str] = field(default_factory=engine_axes)
    factory: Callable[..., Engine] | None = None

    @property
    def partitioned(self) -> bool:
        return self.axes["windowing"] != "none"

    def build(self, topo: Any, config: NetworkConfig | None,
              params: Mapping[str, Any]) -> Engine:
        if self.factory is not None:
            return self.factory(topo, config, **params)
        return _build_preset(self.axes, topo, config, **params)


engine_registry = Registry("engine")


def register_engine(spec: EngineSpec, aliases: tuple[str, ...] = (),
                    replace: bool = False) -> EngineSpec:
    """Add an execution engine to the roster (``docs/engines.md``)."""
    engine_registry.register(spec, aliases=aliases, replace=replace)
    return spec


def build_engine(table: Mapping[str, Any], topo: Any,
                 config: NetworkConfig | None = None,
                 path: str = "engine") -> Engine:
    """Instantiate an engine from a canonical ``{"type": ..., ...}`` table.

    ``topo``/``config`` are the fabric the engine will execute;
    partitioned engines derive their plan and lookahead from them.
    Structural mismatches (more partitions than dragonfly groups, an
    explicit lookahead the link latencies cannot justify) surface as
    :class:`~repro.registry.core.RegistryError` with the key path.
    """
    from repro.parallel import PartitionError

    table = dict(table)
    name = table.pop("type", None)
    if name is None:
        raise _err(path, "missing 'type' key naming the engine")
    spec = engine_registry.get(name, path=f"{path}.type")
    assert isinstance(spec, EngineSpec)
    params = spec.resolve_params(table, path, kind="engine")
    try:
        return spec.build(topo, config, params)
    except PartitionError as exc:
        raise _err(path, str(exc)) from None


def available_engines() -> tuple[str, ...]:
    return engine_registry.names()


# -- built-in roster ---------------------------------------------------------

def _build_preset(axes: Mapping[str, str], topo: Any,
                  config: NetworkConfig | None, **params: Any) -> Engine:
    """The one factory behind every preset: ``axes`` pick the engine,
    ``params`` (the preset's declared parameters, resolved) size it."""
    windowed = axes["windowing"] == "yawns"
    if axes["layout"] == "mp":
        from repro.parallel.mp import mp_conservative_engine

        return mp_conservative_engine(topo, config, **params)
    if axes["backend"] == "compiled":
        from repro import accel

        if windowed:
            return accel.accel_conservative_engine(topo, config, **params)
        return accel.accel_sequential_engine(**params)
    if windowed:
        from repro.parallel import conservative_engine

        return conservative_engine(topo, config, **params)
    return SequentialEngine()


_PARTITIONS = Param("partitions", "int",
                    "LP partitions (grouped topology-aware)",
                    default=4, minimum=1)
_LOOKAHEAD = Param("lookahead", "float",
                   "explicit lookahead override in seconds (default: derived "
                   "from the partition plan's cross-partition links)",
                   default=None)
_ACCEL_BACKEND = Param("backend", "str",
                       "event-loop backend: 'compiled' (the C kernel, falling "
                       "back cleanly with the reason recorded when it cannot "
                       "be built) or 'python' (force the pure-Python fallback)",
                       default="compiled", choices=("compiled", "python"))


register_engine(EngineSpec(
    name="sequential",
    summary="deterministic single-queue event scheduler (the default)",
), aliases=("seq",))

register_engine(EngineSpec(
    name="conservative",
    summary="partitioned YAWNS execution, lookahead from the minimum "
            "cross-partition link latency",
    params=(_PARTITIONS, _LOOKAHEAD),
    axes=engine_axes(windowing="yawns"),
), aliases=("yawns",))

register_engine(EngineSpec(
    name="mp-conservative",
    summary="YAWNS execution distributed over one worker process per "
            "partition (clean single-process fallback, see docs/engines.md)",
    params=(
        Param("partitions", "int", "LP partitions (grouped topology-aware), "
              "one worker process each",
              default=4, minimum=1),
        _LOOKAHEAD,
        Param("backend", "str",
              "cross-process transport: 'mp' (spawned processes over "
              "pipes) or 'inline' (in-process protocol emulation)",
              default="mp", choices=("mp", "inline")),
    ),
    axes=engine_axes(windowing="yawns", layout="mp"),
), aliases=("mp",))

register_engine(EngineSpec(
    name="accel-sequential",
    summary="sequential scheduling with the event loop in the compiled "
            "repro.accel kernel (bit-identical pure-Python fallback)",
    params=(_ACCEL_BACKEND,),
    axes=engine_axes(backend="compiled"),
), aliases=("fast",))

register_engine(EngineSpec(
    name="accel-conservative",
    summary="partitioned YAWNS execution with the window loop in the "
            "compiled repro.accel kernel (bit-identical pure-Python "
            "fallback)",
    params=(_PARTITIONS, _LOOKAHEAD, _ACCEL_BACKEND),
    axes=engine_axes(windowing="yawns", backend="compiled"),
), aliases=("fast-yawns",))
