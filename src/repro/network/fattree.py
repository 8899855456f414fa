"""Three-level k-ary fat-tree topology and nearest-common-ancestor routing.

CODES's network module is an abstraction layer that many topology models
plug into (Section II-B lists dragonfly, torus, fat-tree, slim fly).
This module adds the classic k-ary fat-tree (Clos) so that fabric-level
experiments can compare the dragonfly results against a full-bisection
network.

Structure (for even ``k``):

* ``k`` pods, each with ``k/2`` edge switches and ``k/2`` aggregation
  switches;
* each edge switch serves ``k/2`` compute nodes and uplinks to every
  aggregation switch in its pod;
* ``(k/2)^2`` core switches; core switch ``c`` connects to aggregation
  switch ``c // (k/2)`` of every pod.

Total: ``k^3/4`` nodes, ``5k^2/4`` switches.

Like :class:`~repro.network.torus.TorusTopology`, this implements the
structural duck-type the :class:`~repro.network.fabric.NetworkFabric`
consumes rather than subclassing the dragonfly-specific ``Topology``
base.  Edge<->aggregation links are class LOCAL and aggregation<->core
links are class GLOBAL, so the link-load instrument distinguishes the
two tiers the same way it distinguishes dragonfly link classes.
"""

from __future__ import annotations

from repro.network.config import LinkClass, NetworkConfig
from repro.network.topology import PortGraph
from repro.network.routing import per_router_stream
from repro.pdes.rng import SplitMix


class FatTreeTopology(PortGraph):
    """A three-level k-ary fat-tree of switches.

    Parameters
    ----------
    k:
        Switch radix; must be even and >= 2.  The network has ``k`` pods
        and ``k^3/4`` compute nodes.

    Switch numbering (``n_routers = 5k^2/4`` total):

    * edge switches: ``pod * (k/2) + i`` for ``i in [0, k/2)``,
      occupying ids ``[0, k^2/2)``;
    * aggregation switches: ``k^2/2 + pod * (k/2) + j``;
    * core switches: ``k^2 + c`` for ``c in [0, (k/2)^2)``.
    """

    name = "fat-tree"

    def __init__(self, k: int = 4) -> None:
        if k < 2 or k % 2 != 0:
            raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")
        self.k = k
        half = k // 2
        self.half = half
        self.n_pods = k
        self.edge_per_pod = half
        self.agg_per_pod = half
        self.nodes_per_edge = half
        self.n_edge = k * half
        self.n_agg = k * half
        self.n_core = half * half
        self.n_routers = self.n_edge + self.n_agg + self.n_core
        self.n_nodes = self.n_edge * half
        self.nodes_per_router = half  # only edge switches host nodes

        self._init_ports(self.n_routers)
        self._build()

    # -- switch id helpers ---------------------------------------------------
    def edge_id(self, pod: int, i: int) -> int:
        return pod * self.half + i

    def agg_id(self, pod: int, j: int) -> int:
        return self.n_edge + pod * self.half + j

    def core_id(self, c: int) -> int:
        return self.n_edge + self.n_agg + c

    def is_edge(self, router: int) -> bool:
        return router < self.n_edge

    def is_agg(self, router: int) -> bool:
        return self.n_edge <= router < self.n_edge + self.n_agg

    def is_core(self, router: int) -> bool:
        return router >= self.n_edge + self.n_agg

    def pod_of(self, router: int) -> int:
        """Pod of an edge or aggregation switch (-1 for core switches)."""
        if self.is_edge(router):
            return router // self.half
        if self.is_agg(router):
            return (router - self.n_edge) // self.half
        return -1

    def router_of_node(self, node: int) -> int:
        return node // self.nodes_per_edge

    def nodes_of_router(self, router: int) -> range:
        if not self.is_edge(router):
            return range(0)
        base = router * self.nodes_per_edge
        return range(base, base + self.nodes_per_edge)

    # -- construction ----------------------------------------------------------
    def _build(self) -> None:
        half = self.half
        # Terminal ports on edge switches.
        for e in range(self.n_edge):
            for node in self.nodes_of_router(e):
                self._add_port(e, LinkClass.TERMINAL, peer_node=node)
        # Edge <-> aggregation (intra-pod, LOCAL).
        for pod in range(self.n_pods):
            for i in range(half):
                for j in range(half):
                    e, a = self.edge_id(pod, i), self.agg_id(pod, j)
                    self._add_port(e, LinkClass.LOCAL, a)
                    self._add_port(a, LinkClass.LOCAL, e)
        # Aggregation <-> core (GLOBAL).  Core c talks to agg c // half.
        for c in range(self.n_core):
            j = c // half
            core = self.core_id(c)
            for pod in range(self.n_pods):
                a = self.agg_id(pod, j)
                self._add_port(a, LinkClass.GLOBAL, core)
                self._add_port(core, LinkClass.GLOBAL, a)

    # -- descriptive ---------------------------------------------------------------
    def diameter(self) -> int:
        return 4  # edge -> agg -> core -> agg -> edge

    def describe(self) -> dict[str, object]:
        return {
            "topology": f"{self.k}-ary fat-tree",
            "radix": self.radix(),
            "pods": self.n_pods,
            "switches": self.n_routers,
            "system_size": self.n_nodes,
            "diameter": self.diameter(),
        }


class FatTreeNCARouting:
    """Route up to the nearest common ancestor tier, then down.

    The upward switch at each tier is chosen per packet: ``"dmodk"``
    picks it deterministically from the destination node id (the classic
    D-mod-k scheme, giving static load balance with per-destination path
    stability), ``"random"`` picks uniformly, and ``"adaptive"`` picks
    the upward port with the shallowest output queue.
    """

    name = "fattree-nca"

    def __init__(
        self,
        topo: FatTreeTopology,
        config: NetworkConfig,
        probe,
        stream_id: int = 0,
        mode: str = "dmodk",
    ) -> None:
        if mode not in ("dmodk", "random", "adaptive"):
            raise ValueError(f"unknown fat-tree mode {mode!r}")
        self.topo = topo
        self.config = config
        self.probe = probe
        self.mode = mode
        # One tie-break stream per source router (see
        # repro.network.routing.per_router_stream): keeps the draw
        # sequence a function of each router's own injection order.
        self._streams = [
            SplitMix(config.seed, per_router_stream(stream_id, r))
            for r in range(topo.n_routers)
        ]
        self.rng = self._streams[0]
        self.name = f"fattree-{mode}"

    def _pick_up(self, router: int, candidates: list[int], salt: int) -> int:
        if self.mode == "dmodk":
            return candidates[salt % len(candidates)]
        if self.mode == "random":
            return self.rng.choice(candidates)
        # adaptive: shallowest first-hop queue, random tie-break
        topo = self.topo
        depths = []
        for peer in candidates:
            ports = topo.ports_to_router[router][peer]
            depths.append(min(self.probe(router, p) for p in ports))
        best = min(depths)
        choices = [c for c, d in zip(candidates, depths) if d == best]
        return choices[0] if len(choices) == 1 else self.rng.choice(choices)

    def select_path(self, src_router: int, dst_router: int) -> tuple[list[int], bool]:
        topo = self.topo
        if src_router == dst_router:
            return [src_router], False
        self.rng = self._streams[src_router]
        half = self.half = topo.half
        src_pod, dst_pod = topo.pod_of(src_router), topo.pod_of(dst_router)
        # salt for D-mod-k: spread by destination edge switch id
        salt = dst_router
        if src_pod == dst_pod:
            # NCA is an aggregation switch of the shared pod.
            aggs = [topo.agg_id(src_pod, j) for j in range(half)]
            via = self._pick_up(src_router, aggs, salt)
            return [src_router, via, dst_router], False
        # NCA is a core switch: edge -> agg -> core -> agg -> edge.
        aggs = [topo.agg_id(src_pod, j) for j in range(half)]
        agg_up = self._pick_up(src_router, aggs, salt)
        j = (agg_up - topo.n_edge) % half
        cores = [topo.core_id(j * half + m) for m in range(half)]
        core = self._pick_up(agg_up, cores, salt)
        agg_down = topo.agg_id(dst_pod, j)
        return [src_router, agg_up, core, agg_down, dst_router], False


def fattree_routing_factory(mode: str = "dmodk"):
    """Routing factory for :class:`NetworkFabric`'s ``routing=`` parameter."""

    def factory(topo, config, probe, stream_id=0):
        return FatTreeNCARouting(topo, config, probe, stream_id, mode=mode)

    return factory
