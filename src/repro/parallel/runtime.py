"""Build partitioned conservative engines.

:func:`conservative_engine` is the one entry point the registry, the
workload manager and the benchmarks share: topology in, ready-to-run
:class:`~repro.pdes.conservative.ConservativeEngine` out, with the
partition plan attached (``engine.plan``) and the lookahead derived
from the minimum cross-partition link latency -- the widest window the
real link latencies justify.

The engine's execution stats (window count, window width,
per-partition committed events) are published as ``pdes.conservative.*``
gauges by :meth:`repro.pdes.engine.Engine.bind_telemetry`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.network.config import NetworkConfig
from repro.parallel.partition import (
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
    engine_cls:
        The engine to instantiate, taking :class:`ConservativeEngine`'s
        constructor arguments (the compiled and multi-process engines
        reuse this plan/lookahead derivation with their own cores).
    """
    config = config or NetworkConfig()
    plan = plan_partitions(topo, partitions)
    engine = engine_cls(
        lookahead=resolve_lookahead(topo, config, plan),
        n_partitions=partitions,
        partition_fn=plan,
    )
    engine.plan = plan
    return engine


def resolve_lookahead(
    topo: Any,
    config: NetworkConfig,
    plan: PartitionPlan,
) -> float:
    """The lookahead of ``plan``: its minimum cross-partition link
    latency."""
    auto = min_cross_partition_latency(topo, config, plan)
    if auto is not None:
        return auto
    # Single partition: no link crosses, any positive lookahead is
    # safe.  Use the tightest link delay so window stats stay
    # meaningful rather than degenerating to one infinite window.
    return min(
        config.latency(c) + config.router_delay
        for c in {p.link_class for ports in topo.router_ports for p in ports}
    )


__all__ = ["conservative_engine", "resolve_lookahead"]
