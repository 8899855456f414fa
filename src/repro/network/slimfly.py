"""Slim Fly (MMS graph) topology and diameter-2 routing.

Slim Fly [Besta & Hoefler, SC'14] arranges routers as a McKay-Miller-
Siran (MMS) graph: a degree-optimal diameter-2 network.  CODES ships a
slim fly model (Section II-B); this module provides the equivalent for
our fabric, completing the topology roster (dragonfly 1D/2D, torus,
fat-tree, slim fly).

Construction (primes ``q = 4w + 1`` only -- the delta = +1 family the
Slim Fly paper deploys in practice, and plenty for the sizes a laptop
simulation can hold): split ``2 q^2`` routers into two halves A and B.

* A-router ``(0, x, y)`` and ``(0, x, y')`` are linked iff ``y - y'`` is
  in the generator set ``X``;
* B-router ``(1, m, c)`` and ``(1, m, c')`` are linked iff ``c - c'`` is
  in ``X'``;
* ``(0, x, y)`` and ``(1, m, c)`` are linked iff ``y == m*x + c (mod q)``.

With a primitive root ``xi`` of ``GF(q)``, ``X = {1, xi^2, xi^4, ...}``
and ``X' = {xi, xi^3, ...}``; the graph has diameter 2 and router
degree ``(3q - 1) / 2``.

All links are class LOCAL (a slim fly is flat, like the torus), so the
link-load instrument reports a zero global fraction.
"""

from __future__ import annotations

from repro.network.config import LinkClass, NetworkConfig
from repro.network.topology import PortGraph
from repro.network.routing import per_router_stream
from repro.pdes.rng import SplitMix


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _primitive_root(q: int) -> int:
    """Smallest primitive root modulo prime ``q``."""
    if q == 2:
        return 1
    # factor q-1
    n = q - 1
    factors = set()
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    for g in range(2, q):
        if all(pow(g, n // p, q) != 1 for p in factors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")  # pragma: no cover


def generator_sets(q: int) -> tuple[frozenset[int], frozenset[int]]:
    """The MMS generator sets ``(X, X')`` for prime ``q = 4w + 1``.

    ``X`` holds the even powers of a primitive root (the quadratic
    residues), ``X'`` the odd powers (non-residues).  For ``q = 4w + 1``
    the exponent of ``-1`` is even, so both sets are closed under
    negation and the two Cayley graphs are undirected.
    """
    if q % 4 != 1:
        raise ValueError(f"generator sets need a prime q = 4w + 1, got {q}")
    xi = _primitive_root(q)
    X = {pow(xi, e, q) for e in range(0, q - 1, 2)}
    Xp = {pow(xi, e, q) for e in range(1, q - 1, 2)}
    return frozenset(X), frozenset(Xp)


class SlimFlyTopology(PortGraph):
    """An MMS-graph slim fly of ``2 q^2`` routers (``q`` prime).

    Router ids: A-half router ``(x, y)`` is ``x * q + y``; B-half router
    ``(m, c)`` is ``q^2 + m * q + c``.

    Parameters
    ----------
    q:
        Prime congruent to 1 mod 4; ``q in {5, 13, 17, 29, ...}``.
        ``q = 5`` gives 50 routers of degree 7.
    nodes_per_router:
        Compute nodes per router (Slim Fly's paper suggests about half
        the network degree).
    """

    name = "slim fly"

    def __init__(self, q: int = 5, nodes_per_router: int = 2) -> None:
        if not _is_prime(q) or q % 4 != 1:
            raise ValueError(f"slim fly requires a prime q = 4w + 1 (5, 13, 17, ...), got {q}")
        if nodes_per_router < 1:
            raise ValueError(f"nodes_per_router must be >= 1, got {nodes_per_router}")
        self.q = q
        self.delta = 1
        self.nodes_per_router = nodes_per_router
        self.n_routers = 2 * q * q
        self.n_nodes = self.n_routers * nodes_per_router
        self.X, self.Xp = generator_sets(q)

        self._init_ports(self.n_routers)
        self.adj: list[set[int]] = [set() for _ in range(self.n_routers)]
        self._build()

    # -- identities ---------------------------------------------------------
    def router_of_node(self, node: int) -> int:
        return node // self.nodes_per_router

    def nodes_of_router(self, router: int) -> range:
        base = router * self.nodes_per_router
        return range(base, base + self.nodes_per_router)

    def a_router(self, x: int, y: int) -> int:
        return x * self.q + y

    def b_router(self, m: int, c: int) -> int:
        return self.q * self.q + m * self.q + c

    def label(self, router: int) -> tuple[int, int, int]:
        """(half, i, j) label of a router: half 0 is A, half 1 is B."""
        q = self.q
        if router < q * q:
            return (0, router // q, router % q)
        r = router - q * q
        return (1, r // q, r % q)

    # -- construction ----------------------------------------------------------
    def _add_edge(self, r1: int, r2: int) -> None:
        for a, b in ((r1, r2), (r2, r1)):
            self._add_port(a, LinkClass.LOCAL, b)
            self.adj[a].add(b)

    def _build(self) -> None:
        q = self.q
        for r in range(self.n_routers):
            for node in self.nodes_of_router(r):
                self._add_port(r, LinkClass.TERMINAL, peer_node=node)
        # Intra-half Cayley edges.
        for x in range(q):
            for y in range(q):
                for yp in range(y + 1, q):
                    if (y - yp) % q in self.X:
                        self._add_edge(self.a_router(x, y), self.a_router(x, yp))
        for m in range(q):
            for c in range(q):
                for cp in range(c + 1, q):
                    if (c - cp) % q in self.Xp:
                        self._add_edge(self.b_router(m, c), self.b_router(m, cp))
        # Bipartite A-B edges: y = m x + c.
        for x in range(q):
            for m in range(q):
                for c in range(q):
                    y = (m * x + c) % q
                    self._add_edge(self.a_router(x, y), self.b_router(m, c))

    # -- descriptive ---------------------------------------------------------------
    def degree(self) -> int:
        """Network degree (router-to-router links per router)."""
        return max(len(self.adj[r]) for r in range(self.n_routers))

    def diameter(self) -> int:
        return 2

    def describe(self) -> dict[str, object]:
        return {
            "topology": f"slim fly MMS({self.q})",
            "radix": self.radix(),
            "network_degree": self.degree(),
            "routers": self.n_routers,
            "nodes_per_router": self.nodes_per_router,
            "system_size": self.n_nodes,
            "diameter": self.diameter(),
        }


class SlimFlyRouting:
    """Minimal (diameter <= 2) routing with optional adaptive detours.

    ``"min"`` picks the direct link when one exists, otherwise a random
    common neighbour.  ``"adaptive"`` applies a UGAL-style comparison
    between the best minimal candidate and a Valiant detour through a
    random intermediate router (each leg itself minimal, so detours are
    at most 4 hops).
    """

    def __init__(
        self,
        topo: SlimFlyTopology,
        config: NetworkConfig,
        probe,
        stream_id: int = 0,
        mode: str = "min",
    ) -> None:
        if mode not in ("min", "adaptive"):
            raise ValueError(f"unknown slim fly mode {mode!r}")
        self.topo = topo
        self.config = config
        self.probe = probe
        self.mode = mode
        # One tie-break stream per source router (see
        # repro.network.routing.per_router_stream).
        self._streams = [
            SplitMix(config.seed, per_router_stream(stream_id, r))
            for r in range(topo.n_routers)
        ]
        self.rng = self._streams[0]
        self.name = f"slimfly-{mode}"
        self._common: dict[tuple[int, int], tuple[int, ...]] = {}

    def _common_neighbors(self, a: int, b: int) -> tuple[int, ...]:
        key = (a, b) if a < b else (b, a)
        hit = self._common.get(key)
        if hit is None:
            hit = tuple(sorted(self.topo.adj[a] & self.topo.adj[b]))
            self._common[key] = hit
        return hit

    def _queue_to(self, router: int, peer: int) -> int:
        ports = self.topo.ports_to_router[router][peer]
        return min(self.probe(router, p) for p in ports)

    def _minimal(self, src: int, dst: int) -> list[int]:
        if src == dst:
            return [src]
        if dst in self.topo.adj[src]:
            return [src, dst]
        mids = self._common_neighbors(src, dst)
        if not mids:  # pragma: no cover - MMS graphs have diameter 2
            raise RuntimeError(f"no 2-hop path between routers {src} and {dst}")
        if self.mode == "adaptive" and len(mids) > 1:
            best = min(mids, key=lambda m: self._queue_to(src, m))
            return [src, best, dst]
        return [src, self.rng.choice(list(mids)), dst]

    def select_path(self, src_router: int, dst_router: int) -> tuple[list[int], bool]:
        self.rng = self._streams[src_router]
        mpath = self._minimal(src_router, dst_router)
        if self.mode != "adaptive" or src_router == dst_router:
            return mpath, False
        # Valiant candidate through a random intermediate router.
        inter = self.rng.randint(self.topo.n_routers)
        while inter == src_router or inter == dst_router:
            inter = self.rng.randint(self.topo.n_routers)
        head = self._minimal(src_router, inter)
        tail = self._minimal(inter, dst_router)
        vpath = head + tail[1:]
        if len(vpath) <= len(mpath):
            return mpath, False
        q_min = self._queue_to(src_router, mpath[1]) if len(mpath) > 1 else 0
        q_non = self._queue_to(src_router, vpath[1])
        h_min, h_non = len(mpath) - 1, len(vpath) - 1
        if q_min * h_min > q_non * h_non + self.config.adaptive_bias:
            return vpath, True
        return mpath, False


def slimfly_routing_factory(mode: str = "min"):
    """Routing factory for :class:`NetworkFabric`'s ``routing=`` parameter."""

    def factory(topo, config, probe, stream_id=0):
        return SlimFlyRouting(topo, config, probe, stream_id, mode=mode)

    return factory
