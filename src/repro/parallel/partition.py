"""Topology-aware LP partitioning for conservative execution.

The paper's CODES/ROSS runs map router LPs (and the terminals attached
to them) onto processors so that the cheapest links stay processor-local
and the minimum latency of the links that *do* cross processors provides
the YAWNS lookahead.  :func:`plan_partitions` reproduces that mapping
per fabric family:

* **dragonfly** (group-structured): whole groups per partition, so only
  global links cross -- the widest possible lookahead (global latency
  plus the router pipeline delay);
* **fat-tree**: whole pods per partition, core switches spread in
  contiguous blocks; only aggregation<->core (class GLOBAL) links cross;
* **torus**: contiguous slabs along the longest dimension, so only the
  slab-boundary neighbor links cross;
* anything else (slim fly, custom fabrics): contiguous router blocks.

Terminals always follow their router (a terminal and its router
exchange sub-lookahead events every packet), and the resulting
:class:`PartitionPlan` doubles as the engine's ``partition_fn`` because
the fabric registers LPs in a fixed order: routers ``0..n_routers-1``
first, then terminals.  LPs registered later (MPI drivers, storage
servers) are pinned with an explicit ``register(partition=...)`` hint;
the plan refuses to guess for them.

:func:`min_cross_partition_latency` derives the lookahead from the plan
by scanning every router-router link that crosses partitions -- the
engine's contract then *proves* the plan safe at runtime instead of
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.network.config import NetworkConfig


class PartitionError(ValueError):
    """A partition request the topology cannot satisfy; the message
    names the constraint and the valid range."""


def _label(topo: Any) -> str:
    return getattr(topo, "name", type(topo).__name__)


@dataclass(frozen=True)
class PartitionPlan:
    """An LP -> partition assignment for one fabric.

    ``part_of_router``/``part_of_node`` index by router/node id; the
    plan is callable with a fabric LP id (routers first, then
    terminals -- the registration order of
    :class:`~repro.network.fabric.NetworkFabric`), making it a valid
    ``partition_fn`` for :class:`~repro.pdes.conservative.ConservativeEngine`.
    """

    n_partitions: int
    part_of_router: tuple[int, ...]
    part_of_node: tuple[int, ...]
    scheme: str  # "group" | "pod" | "slab" | "block"

    def __call__(self, lp_id: int) -> int:
        n_routers = len(self.part_of_router)
        if lp_id < n_routers:
            return self.part_of_router[lp_id]
        node = lp_id - n_routers
        if node < len(self.part_of_node):
            return self.part_of_node[node]
        raise LookupError(
            f"LP {lp_id} is not a fabric LP of this plan "
            f"({n_routers} routers + {len(self.part_of_node)} terminals); "
            "register control LPs with an explicit partition= hint"
        )

    def describe(self) -> dict[str, Any]:
        sizes = [0] * self.n_partitions
        for p in self.part_of_router:
            sizes[p] += 1
        return {
            "scheme": self.scheme,
            "n_partitions": self.n_partitions,
            "routers_per_partition": sizes,
        }


def plan_partitions(topo: Any, n_partitions: int) -> PartitionPlan:
    """Topology-aware partitioning of a fabric's routers and terminals.

    Raises :class:`PartitionError` when the request does not fit the
    topology's structure (more partitions than groups/pods/slabs), so a
    bad engine config fails before any simulation state exists.
    """
    if n_partitions < 1:
        raise PartitionError(
            f"partitions must be >= 1, got {n_partitions}"
        )
    n_routers = topo.n_routers
    if n_partitions > n_routers:
        raise PartitionError(
            f"cannot split {_label(topo)!r} ({n_routers} routers) into "
            f"{n_partitions} partitions: more partitions than routers"
        )

    if hasattr(topo, "group_of") and hasattr(topo, "n_groups"):
        n_groups = topo.n_groups
        if n_partitions > n_groups:
            raise PartitionError(
                f"cannot split {_label(topo)!r} into {n_partitions} "
                f"partitions: only {n_groups} groups, and a partition "
                "boundary through a group would cut sub-lookahead local "
                f"links (use at most {n_groups} partitions)"
            )
        part_of_router = tuple(
            topo.group_of(r) * n_partitions // n_groups for r in range(n_routers)
        )
        scheme = "group"
    elif hasattr(topo, "pod_of") and hasattr(topo, "n_pods"):
        n_pods = topo.n_pods
        if n_partitions > n_pods:
            raise PartitionError(
                f"cannot split {_label(topo)!r} into {n_partitions} "
                f"partitions: only {n_pods} pods, and a partition boundary "
                "through a pod would cut sub-lookahead edge-aggregation "
                f"links (use at most {n_pods} partitions)"
            )
        n_core = topo.n_core
        parts = []
        for r in range(n_routers):
            if topo.is_core(r):
                core = r - (n_routers - n_core)
                parts.append(core * n_partitions // n_core)
            else:
                parts.append(topo.pod_of(r) * n_partitions // n_pods)
        part_of_router = tuple(parts)
        scheme = "pod"
    elif hasattr(topo, "dims") and hasattr(topo, "coords"):
        dims = tuple(topo.dims)
        axis = max(range(len(dims)), key=lambda i: dims[i])
        if n_partitions > dims[axis]:
            raise PartitionError(
                f"cannot split {_label(topo)!r} {dims} into {n_partitions} "
                f"slabs: the longest dimension has only {dims[axis]} rings "
                f"(use at most {dims[axis]} partitions)"
            )
        part_of_router = tuple(
            topo.coords(r)[axis] * n_partitions // dims[axis]
            for r in range(n_routers)
        )
        scheme = "slab"
    else:
        part_of_router = tuple(
            r * n_partitions // n_routers for r in range(n_routers)
        )
        scheme = "block"

    part_of_node = tuple(
        part_of_router[topo.router_of_node(node)] for node in range(topo.n_nodes)
    )
    return PartitionPlan(n_partitions, part_of_router, part_of_node, scheme)


def min_cross_partition_latency(
    topo: Any, config: NetworkConfig, plan: PartitionPlan
) -> float | None:
    """Minimum delay of any event crossing the plan's partitions.

    Scans every directed router-router link whose endpoints land in
    different partitions; the model forwards a packet over such a link
    no sooner than the link's propagation latency plus the router
    pipeline delay, so that sum is a safe lookahead.  Returns ``None``
    when no link crosses (a single partition).
    """
    part = plan.part_of_router
    best: float | None = None
    for r, ports in enumerate(topo.router_ports):
        for p in ports:
            if p.peer_router < 0 or part[p.peer_router] == part[r]:
                continue
            delay = config.latency(p.link_class) + config.router_delay
            if best is None or delay < best:
                best = delay
    return best
