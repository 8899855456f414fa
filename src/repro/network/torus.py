"""Torus topology and dimension-order routing.

CODES's network module is an abstraction layer that many topology models
plug into (Section II-B lists dragonfly, torus, fat-tree, slim fly).
This module demonstrates the same property of our fabric: a k-ary
n-dimensional torus with dimension-order routing that runs under the
unchanged :class:`~repro.network.fabric.NetworkFabric`, router and
terminal models.

All torus links are class LOCAL (a torus has no link hierarchy), so the
link-load instrument reports a zero global fraction -- correct, not a
gap.
"""

from __future__ import annotations

from repro.network.config import LinkClass, NetworkConfig
from repro.network.topology import PortGraph
from repro.network.routing import per_router_stream
from repro.pdes.rng import SplitMix


class TorusTopology(PortGraph):
    """A k-ary n-dimensional torus of routers.

    A :class:`~repro.network.topology.PortGraph` (the structural
    interface the fabric consumes) plus ``router_of_node``; it is *not*
    a dragonfly, so it deliberately does not subclass
    :class:`~repro.network.topology.Topology`.
    """

    name = "torus"

    def __init__(self, dims: tuple[int, ...] = (4, 4, 4), nodes_per_router: int = 1) -> None:
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"every torus dimension must be >= 2, got {dims}")
        if nodes_per_router < 1:
            raise ValueError(f"nodes_per_router must be >= 1, got {nodes_per_router}")
        self.dims = tuple(int(d) for d in dims)
        self.nodes_per_router = nodes_per_router
        self.n_routers = 1
        for d in self.dims:
            self.n_routers *= d
        self.n_nodes = self.n_routers * nodes_per_router

        self._init_ports(self.n_routers)
        self._build()

    # -- identities ---------------------------------------------------------
    def router_of_node(self, node: int) -> int:
        return node // self.nodes_per_router

    def nodes_of_router(self, router: int) -> range:
        base = router * self.nodes_per_router
        return range(base, base + self.nodes_per_router)

    def coords(self, router: int) -> tuple[int, ...]:
        out = []
        for d in self.dims:
            out.append(router % d)
            router //= d
        return tuple(out)

    def router_at(self, coords: tuple[int, ...]) -> int:
        rank = 0
        stride = 1
        for c, d in zip(coords, self.dims):
            rank += (c % d) * stride
            stride *= d
        return rank

    # -- construction ----------------------------------------------------------
    def _build(self) -> None:
        for r in range(self.n_routers):
            for node in self.nodes_of_router(r):
                self._add_port(r, LinkClass.TERMINAL, peer_node=node)
        for r in range(self.n_routers):
            c = self.coords(r)
            for axis in range(len(self.dims)):
                for delta in (1, -1):
                    if self.dims[axis] == 2 and delta == -1:
                        continue  # avoid double links on 2-rings
                    nc = list(c)
                    nc[axis] = (nc[axis] + delta) % self.dims[axis]
                    self._add_port(r, LinkClass.LOCAL, self.router_at(tuple(nc)))

    # -- descriptive ---------------------------------------------------------------
    def diameter(self) -> int:
        return sum(d // 2 for d in self.dims)

    def describe(self) -> dict[str, object]:
        return {
            "topology": f"{'x'.join(map(str, self.dims))} torus",
            "radix": self.radix(),
            "routers": self.n_routers,
            "nodes_per_router": self.nodes_per_router,
            "system_size": self.n_nodes,
            "diameter": self.diameter(),
        }


class TorusDORRouting:
    """Dimension-order routing with shortest-direction wrap selection.

    Deterministic (given the seed) and minimal; deadlock questions do
    not arise in this simulator because router queues are unbounded.
    """

    name = "torus-dor"

    def __init__(self, topo: TorusTopology, config: NetworkConfig, probe, stream_id: int = 0) -> None:
        self.topo = topo
        self.config = config
        self.probe = probe
        # One tie-break stream per source router (see
        # repro.network.routing.per_router_stream).
        self._streams = [
            SplitMix(config.seed, per_router_stream(stream_id, r))
            for r in range(topo.n_routers)
        ]
        self.rng = self._streams[0]

    def _step(self, cur: tuple[int, ...], axis: int, dst_c: int) -> int:
        """Next coordinate along ``axis`` moving the short way to dst."""
        d = self.topo.dims[axis]
        cc = cur[axis]
        fwd = (dst_c - cc) % d
        bwd = (cc - dst_c) % d
        if fwd < bwd or (fwd == bwd and self.rng.randint(2) == 0):
            return (cc + 1) % d
        return (cc - 1) % d

    def select_path(self, src_router: int, dst_router: int) -> tuple[list[int], bool]:
        topo = self.topo
        self.rng = self._streams[src_router]
        path = [src_router]
        cur = list(topo.coords(src_router))
        dst = topo.coords(dst_router)
        for axis in range(len(topo.dims)):
            while cur[axis] != dst[axis]:
                cur[axis] = self._step(tuple(cur), axis, dst[axis])
                path.append(topo.router_at(tuple(cur)))
        return path, False


def torus_routing_factory(name: str = "dor"):
    """Routing factory for :class:`NetworkFabric`'s ``routing=`` parameter."""
    if name != "dor":
        raise ValueError(f"unknown torus routing {name!r}; only 'dor' is implemented")

    def factory(topo, config, probe, stream_id=0):
        return TorusDORRouting(topo, config, probe, stream_id)

    return factory
