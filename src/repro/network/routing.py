"""Routing policies: minimal (MIN) and UGAL-style adaptive (ADP).

Paths are selected per packet at injection time, at router granularity;
the forwarding router picks the least-loaded port among parallel links
to the chosen next router.  Adaptive routing implements UGAL-L: compare
the queue depth of the first hop of a candidate minimal path against a
candidate Valiant (non-minimal) path, weighted by path length, with a
configurable bias towards minimal (Section IV-C).
"""

from __future__ import annotations

from typing import Callable

from repro.network.config import NetworkConfig
from repro.network.topology import Topology
from repro.pdes.rng import SplitMix

# queue_probe(router_id, port_id) -> packets queued on that output port
QueueProbe = Callable[[int, int], int]


def per_router_stream(stream_id: int, router: int) -> int:
    """Derived SplitMix stream id for one source router's tie-breaks.

    Every routing policy keys its RNG streams this way (policy stream id
    in the high bits, source router + 1 in the low 20), so a policy's
    draws are partitionable by source router: the draw sequence observed
    by router ``r`` depends only on ``r``'s own injection order.
    """
    return (stream_id << 20) | (router + 1)


class RoutingPolicy:
    """Base class: selects the router-level path of one packet."""

    name = "abstract"

    def __init__(self, topo: Topology, config: NetworkConfig, probe: QueueProbe, stream_id: int = 0) -> None:
        self.topo = topo
        self.config = config
        self.probe = probe
        # One tie-break stream *per source router*, derived from the
        # policy's stream id: every draw a select_path(src, ...) call
        # makes -- including the draws of the Valiant tail through a
        # remote entry router -- comes from src's stream.  The draw
        # sequence of a router is therefore a function of that router's
        # injection order alone, which the compiled kernel reproduces
        # draw-for-draw from the same per-router streams.
        self._streams = [
            SplitMix(config.seed, per_router_stream(stream_id, r))
            for r in range(topo.n_routers)
        ]
        self.rng = self._streams[0] if self._streams else SplitMix(config.seed, stream_id)
        # Per-packet hot-path caches: intra-group candidate path lists are
        # static, so memoize them instead of re-enumerating per packet.
        # ``_min_full`` caches complete same-group candidate paths; the
        # cached lists are shared across packets and must not be mutated.
        self._routers_per_group = topo.routers_per_group
        self._draw = self.rng.next_u64  # rebound to the source's stream per call
        self._local_paths: dict[tuple[int, int], list[list[int]]] = {}
        # (src, dst) -> (candidate full paths, rng draws consumed): 0 draws
        # for the trivial same-router path, 1 for a same-group selection.
        self._min_full: dict[tuple[int, int], tuple[list[list[int]], int]] = {}

    def _bind_source(self, src_router: int) -> None:
        """Point ``self._draw`` at ``src_router``'s tie-break stream."""
        self.rng = self._streams[src_router]
        self._draw = self.rng.next_u64

    def select_path(self, src_router: int, dst_router: int) -> tuple[list[int], bool]:
        """Return ``(path, nonminimal)``; path includes src and dst routers."""
        raise NotImplementedError

    def _local_paths_cached(self, src_router: int, dst_router: int) -> list[list[int]]:
        key = (src_router, dst_router)
        paths = self._local_paths.get(key)
        if paths is None:
            paths = self._local_paths[key] = self.topo.local_paths(src_router, dst_router)
        return paths

    # -- shared path construction -------------------------------------------
    def _minimal_candidate(self, src_router: int, dst_router: int) -> list[int]:
        """One randomly chosen minimal path (router ids, src..dst).

        Same-group (and same-router) requests return a *shared* cached
        path list -- one rng draw, zero allocation; callers must treat
        paths as immutable (packets only ever read them).  The draw
        sequence is identical to enumerating the candidates on the fly.
        """
        topo = self.topo
        key = (src_router, dst_router)
        cached = self._min_full.get(key)
        if cached is not None:
            full, draws = cached
            if draws:
                # Consume exactly the draw the uncached path would have.
                return full[self._draw() % len(full)]
            return full[0]
        if src_router == dst_router:
            self._min_full[key] = ([[src_router]], 0)
            return self._min_full[key][0][0]
        draw = self._draw
        g1 = src_router // self._routers_per_group
        g2 = dst_router // self._routers_per_group
        if g1 == g2:
            tails = self._local_paths_cached(src_router, dst_router)
            full = [[src_router] + tail for tail in tails]
            self._min_full[key] = (full, 1)
            return full[draw() % len(full)]
        gws = topo.gateways[g1][g2]
        gw1 = gws[draw() % len(gws)]
        ports = topo.global_ports_to_group[gw1][g2]
        port = ports[draw() % len(ports)]
        gw2 = topo.router_ports[gw1][port].peer_router
        path = [src_router]
        if gw1 != src_router:
            tails = self._local_paths_cached(src_router, gw1)
            path += tails[draw() % len(tails)]
        path.append(gw2)
        if gw2 != dst_router:
            tails = self._local_paths_cached(gw2, dst_router)
            path += tails[draw() % len(tails)]
        return path

    def _valiant_candidate(self, src_router: int, dst_router: int) -> list[int]:
        """One non-minimal path through a random intermediate group."""
        topo = self.topo
        draw = self._draw
        g1 = src_router // self._routers_per_group
        g2 = dst_router // self._routers_per_group
        if topo.n_groups <= 2 or g1 == g2:
            # No useful intermediate group exists; fall back to minimal.
            return self._minimal_candidate(src_router, dst_router)
        n_groups = topo.n_groups
        gi = draw() % n_groups
        while gi == g1 or gi == g2:
            gi = draw() % n_groups
        gws = topo.gateways[g1][gi]
        gw1 = gws[draw() % len(gws)]
        ports = topo.global_ports_to_group[gw1][gi]
        port = ports[draw() % len(ports)]
        entry = topo.router_ports[gw1][port].peer_router
        head = [src_router]
        if gw1 != src_router:
            tails = self._local_paths_cached(src_router, gw1)
            head += tails[draw() % len(tails)]
        head.append(entry)
        tail = self._minimal_candidate(entry, dst_router)
        return head + tail[1:]

    def _first_hop_queue(self, path: list[int]) -> int:
        """Depth of the output queue the packet would first join."""
        if len(path) < 2:
            return 0
        src = path[0]
        ports = self.topo.ports_to_router[src][path[1]]
        if len(ports) == 1:
            return self.probe(src, ports[0])
        return min(self.probe(src, p) for p in ports)


class MinimalRouting(RoutingPolicy):
    """Always route along a (randomly tie-broken) minimal path."""

    name = "min"

    def select_path(self, src_router: int, dst_router: int) -> tuple[list[int], bool]:
        self._bind_source(src_router)
        return self._minimal_candidate(src_router, dst_router), False


class AdaptiveRouting(RoutingPolicy):
    """UGAL-L: pick minimal unless a Valiant detour looks less congested.

    Decision rule (per packet, using source-router queue depths only):
    take the non-minimal path iff

        q_min * h_min > q_non * h_non + bias
    """

    name = "adp"

    def __init__(self, topo: Topology, config: NetworkConfig, probe: QueueProbe, stream_id: int = 0) -> None:
        super().__init__(topo, config, probe, stream_id)
        self._bias = config.adaptive_bias

    def select_path(self, src_router: int, dst_router: int) -> tuple[list[int], bool]:
        self._bind_source(src_router)
        min_path = self._minimal_candidate(src_router, dst_router)
        if src_router == dst_router:
            return min_path, False
        non_path = self._valiant_candidate(src_router, dst_router)
        if len(non_path) <= len(min_path):
            return min_path, False
        q_min = self._first_hop_queue(min_path)
        q_non = self._first_hop_queue(non_path)
        h_min = len(min_path) - 1
        h_non = len(non_path) - 1
        if q_min * h_min > q_non * h_non + self._bias:
            return non_path, True
        return min_path, False


class FaultAwareRouting:
    """Wrap any routing policy to steer around dead fabric elements.

    ``plane`` is duck-typed (:class:`repro.faults.FaultPlane`): it
    exposes ``blocked(path)`` plus the ``avoided``/``unavoidable``
    counters.  When the inner policy's choice crosses a dead link or a
    failed transit router, the selection is re-drawn -- path choice is
    randomized (tie-breaks) and congestion-sensitive on every policy
    this wrapper is installed for, so repeated draws yield alternative
    candidates.  When the candidate set itself has no live member (an
    intra-group pair whose only minimal path is the dead link), the
    wrapper splices a one-router detour around each dead element using
    the topology's adjacency -- routers forward along any adjacent
    sequence, so the repaired path is always deliverable.  Only after
    both fail is the original choice sent anyway (counted
    ``unavoidable``): delivery stays guaranteed, which keeps byte
    conservation checkable under faults.

    The fabric installs this wrapper only when a fault plane with
    down-kind faults is attached; fault-free runs keep the unwrapped
    policy and its exact RNG draw sequence.
    """

    __slots__ = ("_inner", "_plane", "_tries", "name")

    def __init__(self, inner, plane, tries: int = 8) -> None:
        self._inner = inner
        self._plane = plane
        self._tries = tries
        self.name = inner.name

    def select_path(self, src_router: int, dst_router: int) -> tuple[list[int], bool]:
        path, nonmin = self._inner.select_path(src_router, dst_router)
        plane = self._plane
        if not plane.blocked(path):
            return path, nonmin
        for _ in range(self._tries):
            cand, nm = self._inner.select_path(src_router, dst_router)
            if not plane.blocked(cand):
                plane.avoided += 1
                return cand, nm
        repaired = self._repair(path)
        if repaired is not None:
            plane.avoided += 1
            return repaired, True
        plane.unavoidable += 1
        return path, nonmin

    def _repair(self, path: list[int]) -> list[int] | None:
        """Splice live detours around each dead element of ``path``.

        A dead link ``u -> v`` becomes ``u -> w -> v`` through a live
        neighbour ``w`` of both; a failed transit router is bypassed by
        bridging its predecessor to its successor (directly when they
        are adjacent).  Returns ``None`` when no live detour exists.
        """
        plane = self._plane
        adj = self._inner.topo.ports_to_router
        dead, failed = plane.dead_links, plane.failed_routers
        out = [path[0]]
        i, n = 0, len(path)
        while i < n - 1:
            u, v = out[-1], path[i + 1]
            if v in failed and i + 1 < n - 1:
                # Bypass the failed transit router entirely.
                t = path[i + 2]
                if t in adj[u] and (u, t) not in dead:
                    out.append(t)
                else:
                    w = self._bridge(u, t, adj, dead, failed)
                    if w is None:
                        return None
                    out.extend((w, t))
                i += 2
                continue
            if (u, v) in dead:
                w = self._bridge(u, v, adj, dead, failed)
                if w is None:
                    return None
                out.extend((w, v))
            else:
                out.append(v)
            i += 1
        return out if not plane.blocked(out) else None

    def _bridge(self, u: int, t: int, adj, dead, failed) -> int | None:
        """A live router adjacent to both ``u`` and ``t``, or ``None``."""
        for w in adj[u]:
            if w == t or w in failed:
                continue
            if (u, w) in dead or (w, t) in dead:
                continue
            if t in adj[w]:
                return w
        return None


_POLICIES = {"min": MinimalRouting, "adp": AdaptiveRouting}


def make_routing(
    name: str, topo: Topology, config: NetworkConfig, probe: QueueProbe, stream_id: int = 0
) -> RoutingPolicy:
    """Construct a routing policy by short name (``"min"`` or ``"adp"``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown routing policy {name!r}; expected one of {sorted(_POLICIES)}") from None
    return cls(topo, config, probe, stream_id)
