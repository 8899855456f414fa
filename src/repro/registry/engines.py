"""Engine registry: PDES execution engines as named presets over two axes.

The paper runs its simulations on CODES/ROSS, where sequential and
conservative (YAWNS) execution are modes of one engine; this registry
makes the execution engine a pluggable component like topologies and
routings, so a scenario's ``[engine]`` table, the CLI's
``--engine``/``--partitions`` flags and
:class:`~repro.union.manager.WorkloadManager`'s ``engine`` parameter
all resolve through one roster.  An engine is a point on two axes --

``windowing``
    ``none`` (one queue, commit in key order) or ``yawns`` (LPs split
    topology-aware -- whole dragonfly groups / fat-tree pods / torus
    slabs per partition -- and committed in lookahead windows; the
    lookahead is always derived from the minimum cross-partition link
    latency).
``backend``
    ``python`` or ``compiled`` (the loop in the :mod:`repro.accel` C
    kernel; a host that cannot build it falls back to the
    bit-identical Python engine with the reason recorded).

-- and the roster names all four points (``docs/engines.md`` has the
table).  Every preset commits the identical event sequence, so
the one that runs when nothing names an engine is simply the fastest:
:data:`DEFAULT_ENGINE`, the compiled kernel wherever this host can build
it (``sequential`` stays the explicit pure-Python reference).

Engine factories need the live topology (and link config) to build
their partition plan, so :func:`build_engine` takes both -- unlike
topology specs, an engine table cannot be instantiated standalone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.network.config import NetworkConfig
from repro.pdes.engine import Engine
from repro.pdes.sequential import SequentialEngine
from repro.registry.core import ComponentSpec, Param, Registry, _err


#: The axes and their values, first value = the default.
ENGINE_AXES = {
    "windowing": ("none", "yawns"),
    "backend": ("python", "compiled"),
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

    A preset states its ``axes`` and is built by :func:`_build_preset`,
    fresh for each simulation: engines hold per-run LP state, so they
    are never shared between runs.
    """

    axes: Mapping[str, str] = field(default_factory=engine_axes)

    @property
    def partitioned(self) -> bool:
        return self.axes["windowing"] != "none"

    def build(self, topo: Any, config: NetworkConfig | None,
              params: Mapping[str, Any]) -> Engine:
        return _build_preset(self.axes, topo, config, **params)


engine_registry = Registry("engine")

#: The preset a simulation runs on when no ``[engine]`` table, flag or
#: engine instance names one -- :class:`~repro.network.fabric.NetworkFabric`
#: resolves ``engine=None`` through :func:`default_engine`.  Its result
#: documents stay stanza-less: which backend ran is reported by
#: ``union-sim engines`` and the text reports, not in the JSON.
DEFAULT_ENGINE = "accel-sequential"


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
    Structural mismatches (more partitions than dragonfly groups)
    surface as :class:`~repro.registry.core.RegistryError` with the key
    path.
    """
    from repro.parallel import PartitionError

    spec, table = engine_registry.split_table(table, path)
    assert isinstance(spec, EngineSpec)
    params = spec.resolve_params(table, path, kind="engine")
    try:
        return spec.build(topo, config, params)
    except PartitionError as exc:
        raise _err(path, str(exc)) from None


def available_engines() -> tuple[str, ...]:
    return engine_registry.names()


def default_engine(topo: Any = None,
                   config: NetworkConfig | None = None) -> Engine:
    """A fresh :data:`DEFAULT_ENGINE`: the compiled kernel where it
    loads, else the plain sequential engine with ``backend = "python"``
    and the reason recorded -- bit-identical either way."""
    return build_engine({"type": DEFAULT_ENGINE}, topo, config)


def default_engine_info(engine: Engine) -> dict[str, Any]:
    """What a run without an engine table ran on, shaped like a result's
    ``engine`` stanza -- for text reports, never for result JSON."""
    return {"type": f"{DEFAULT_ENGINE} (default)", **engine.describe()}


# -- built-in roster ---------------------------------------------------------

def _build_preset(axes: Mapping[str, str], topo: Any,
                  config: NetworkConfig | None, **params: Any) -> Engine:
    """The one factory behind every preset: ``axes`` pick the engine
    class, ``params`` (the preset's declared parameters, resolved) size
    it.  A windowed engine is partitioned for ``topo`` with its
    lookahead derived from the plan; a ``compiled`` preset whose kernel
    cannot load gets the same engine in Python, with ``backend =
    "python"`` and the reason recorded."""
    windowed = axes["windowing"] == "yawns"
    if windowed:
        from repro.pdes.conservative import ConservativeEngine

        cls = ConservativeEngine
    else:
        cls = SequentialEngine

    def build(engine_cls) -> Engine:
        if not windowed:
            return engine_cls()
        from repro.parallel import conservative_engine

        return conservative_engine(topo, config, engine_cls=engine_cls, **params)

    if axes["backend"] != "compiled":
        return build(cls)
    from repro.accel import AccelUnavailable, KernelEngine

    try:
        return build(KernelEngine)
    except AccelUnavailable as exc:
        reason = str(exc)
    eng = build(cls)
    eng.backend = "python"
    eng.backend_reason = reason
    eng.fabric_reason = "the python backend runs every LP in Python"
    eng.ranks_reason = "the python backend runs every rank in Python"
    return eng


_PARTITIONS = Param("partitions", "int",
                    "LP partitions (grouped topology-aware)",
                    default=4, minimum=1)


register_engine(EngineSpec(
    name="sequential",
    summary="pure-Python reference engine",
), aliases=("seq",))

register_engine(EngineSpec(
    name="conservative",
    summary="partitioned YAWNS execution, lookahead from the minimum "
            "cross-partition link latency",
    params=(_PARTITIONS,),
    axes=engine_axes(windowing="yawns"),
), aliases=("yawns",))

register_engine(EngineSpec(
    name="accel-sequential",
    summary="sequential scheduling with the event loop in the compiled "
            "repro.accel kernel (bit-identical pure-Python fallback; "
            "the default)",
    axes=engine_axes(backend="compiled"),
), aliases=("fast",))

register_engine(EngineSpec(
    name="accel-conservative",
    summary="partitioned YAWNS execution with the window loop in the "
            "compiled repro.accel kernel (bit-identical pure-Python "
            "fallback)",
    params=(_PARTITIONS,),
    axes=engine_axes(windowing="yawns", backend="compiled"),
), aliases=("fast-yawns",))
