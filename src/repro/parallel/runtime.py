"""Build partitioned conservative engines.

:func:`conservative_engine` is the one entry point the registry, the
workload manager and the benchmarks share: topology in, ready-to-run
:class:`~repro.pdes.conservative.ConservativeEngine` out, with the
partition plan attached (``engine.plan``) and the lookahead derived
from the minimum cross-partition link latency unless the caller pins a
tighter one explicitly.  An explicit lookahead *wider* than the
topology supports is refused up front -- it would let the engine commit
windows the real link latencies cannot justify.

The engine's execution stats (window count, window width,
per-partition committed events) are published as ``pdes.conservative.*``
gauges by :meth:`repro.pdes.engine.Engine.bind_telemetry`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.network.config import NetworkConfig
from repro.parallel.partition import (
    PartitionError,
    PartitionPlan,
    min_cross_partition_latency,
    plan_partitions,
)
from repro.pdes.conservative import ConservativeEngine
from repro.pdes.engine import Engine


def conservative_engine(
    topo: Any,
    config: NetworkConfig | None = None,
    partitions: int = 4,
    lookahead: float | None = None,
    engine_cls: Callable[..., Engine] = ConservativeEngine,
) -> Engine:
    """A windowing engine partitioned for ``topo``.

    Parameters
    ----------
    topo:
        The fabric the engine will execute (any registered or duck-typed
        topology); partitioning is topology-aware, see
        :func:`~repro.parallel.partition.plan_partitions`.
    config:
        Link parameters the lookahead derives from (defaults to the
        paper's :class:`NetworkConfig` values -- pass the same config
        the fabric uses).
    partitions:
        Number of partitions.
    lookahead:
        Explicit lookahead override (seconds).  Must be positive and at
        most the minimum cross-partition link latency of the plan;
        ``None`` (the default) uses that minimum directly.
    engine_cls:
        The engine to instantiate, taking :class:`ConservativeEngine`'s
        constructor arguments (the compiled engine reuses this
        plan/lookahead derivation with its own scheduler core).
    """
    config = config or NetworkConfig()
    plan = plan_partitions(topo, partitions)
    engine = engine_cls(
        lookahead=resolve_lookahead(topo, config, plan, lookahead),
        n_partitions=partitions,
        partition_fn=plan,
    )
    engine.plan = plan
    return engine


def resolve_lookahead(
    topo: Any,
    config: NetworkConfig,
    plan: PartitionPlan,
    lookahead: float | None = None,
) -> float:
    """Validate an explicit lookahead against ``plan``, or derive one.

    Shared by every partitioned-engine factory (in-process and
    :mod:`repro.parallel.mp`), so they agree on both the derived value
    and the refusal rules.
    """
    auto = min_cross_partition_latency(topo, config, plan)
    if auto is None:
        # Single partition: no link crosses, any positive lookahead is
        # safe.  Use the tightest link delay so window stats stay
        # meaningful rather than degenerating to one infinite window.
        auto = min(
            config.latency(c) + config.router_delay
            for c in {p.link_class for ports in topo.router_ports for p in ports}
        )
    if lookahead is None:
        return auto
    if lookahead <= 0:
        raise PartitionError(
            f"lookahead must be positive, got {lookahead:g}"
        )
    if lookahead > auto:
        raise PartitionError(
            f"explicit lookahead {lookahead:g}s exceeds the minimum "
            f"cross-partition link latency {auto:g}s of this "
            f"{plan.scheme}-partitioned plan ({plan.n_partitions} partitions); "
            "events crossing partitions would violate the YAWNS "
            f"contract -- use a lookahead <= {auto:g}"
        )
    return lookahead


__all__ = ["conservative_engine", "resolve_lookahead"]
