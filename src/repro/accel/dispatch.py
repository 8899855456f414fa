"""Dispatch rows of the compiled kernel, and fabric adoption.

The kernel dispatches each committed event by destination LP through
one row per LP.  There are two kinds of row:

generic Python
    ``kernel.add_lp(partition, lp.handle)`` -- installed once, when the
    LP registers.  Every event is an :class:`~repro.pdes.event.Event`
    handed to the bound handler.
resident fabric
    The LP is a router or terminal of a :class:`NetworkFabric` the
    kernel *adopted*: :func:`adopt` (called by the fabric at the end of
    its construction, through the engine's ``adopt_fabric``) flattens
    the fabric into the row below and ``kernel.adopt(*row)`` turns the
    LPs' generic rows into fabric rows.  From then on the kernel owns
    the fabric's state and its ``pkt``/``drain``/``inj_done`` events
    (``docs/engines.md``, "Accelerated kernels", has the ownership and
    coherence contract).

A fabric the kernel cannot adopt keeps its generic rows -- the Python
LPs run exactly as on any engine -- and :func:`adopt` returns the
reason, which the engine reports as ``fabric: "python"`` /
``fabric_reason``.  Nothing falls back silently.

The adoption row, in ``kernel.adopt`` argument order (every index is
range-checked *here*; ``_kernel.c`` re-checks only sizes):

``scalars``
    ``(n_links, packet_bytes, n_groups, routers_per_group, terminal_bw,
    inject_latency, app_window, load_on)``; ``n_groups`` is 0 when the
    topology has no dragonfly tables (then only Python policies route),
    ``app_window`` is 0.0 when ``net.router.app.bytes`` is disabled.
``rrows``
    ``array('i')``, one ``(lp_id, first_port, first_adj)`` row per
    router plus a closing ``(-1, n_ports, n_adj)`` row (``rrow_t``).
``prows`` / ``plinks``
    Per port, ``array('i')`` ``(peer_lp, link_id, router, port,
    peer_router, hop_increment)`` (``prow_t``; ``peer_router`` -1 on a
    terminal port) and ``array('d')`` ``(bandwidth, post_tx_latency)``
    (``plink_t``).
``trows``
    ``array('i')``, per node ``(lp_id, router, router_lp, eject_port,
    uplink_id)`` (``trow_t``).
``adj`` / ``cand``
    ``array('i')``: per (router, neighbour) slot ``(neighbour,
    first_cand)`` plus a closing row; ``cand`` lists the candidate
    ports (``topo.ports_to_router``).
``gw`` / ``gp``
    ``array('i')``: ``topo.gateways`` and ``topo.global_ports_to_group``
    as ``n_groups**2 + 1`` / ``n_routers * n_groups + 1`` offsets into
    the same array, then the items (empty when ``n_groups`` is 0).
``objs``
    The Python objects the kernel mirrors its state into and the
    callables it enters Python through, in ``_kernel.c``'s ``O_*``
    order: seven lists (router LPs, their ``busy_until`` lists, their
    ``pending_starts`` lists, terminal LPs, their ``inj_queue`` deques,
    ``link_loads._bytes``, ``_pkt_seq``), two dicts (``total_packets``,
    ``nonmin_packets``), then ``app_counter._bins``,
    ``app_counter.record``, ``fabric._resident_injected``,
    ``fabric._resident_delivered``, ``local_tails``, ``checked_path``.
"""

from __future__ import annotations

from array import array

from repro.network.router import RouterLP
from repro.network.routing import AdaptiveRouting, MinimalRouting
from repro.network.terminal import TerminalLP
from repro.network.topology import Topology

#: ``_kernel.c``'s PATH_MAX_HOPS: the longest router path a packet carries.
MAX_PATH = 64

#: ``set_policy`` kinds.
_NATIVE = {MinimalRouting: 0, AdaptiveRouting: 1}
_PYTHON = 2


def adopt(kernel, fabric, hosting: bool) -> str:
    """Make ``fabric`` resident in ``kernel`` and hand it the kernel
    (``fabric._resident``: its per-message seams call into it);
    returns ``""`` on success, else why it stays on generic Python
    rows.  ``hosting``: the kernel already has a resident fabric (it
    takes one)."""
    reason = _refusal(fabric, hosting)
    if reason:
        return reason
    kernel.adopt(*_fabric_row(fabric))
    set_policy(kernel, fabric, None, fabric.routing)
    for app_id, policy in fabric._app_routing.items():
        set_policy(kernel, fabric, app_id, policy)
    fabric._resident = kernel
    return ""


def _refusal(fabric, hosting: bool) -> str:
    if hosting:
        return "the engine already hosts a resident fabric"
    for lp in fabric.routers:
        if type(lp) is not RouterLP:
            return f"router LP is a subclass ({type(lp).__name__})"
    for lp in fabric.terminals:
        if type(lp) is not TerminalLP:
            return f"terminal LP is a subclass ({type(lp).__name__})"
    if fabric.queue_record is not None:
        return "net.router.queue sampling is enabled"
    if fabric.in_flight() or fabric.total_packets:
        return "the fabric has already carried traffic"
    return ""


def _fabric_row(fabric) -> tuple:
    topo, cfg = fabric.topo, fabric.config
    n_routers, n_links = topo.n_routers, topo.n_links
    n_lps = len(fabric.engine.lps)

    rrows, prows, plinks = array("i"), array("i"), array("d")
    adj, cand = array("i"), array("i")
    for lp in fabric.routers:
        rid = lp.rid
        rrows.extend((lp.lp_id, len(plinks) // 2, len(adj) // 2))
        table = topo.router_ports[rid]
        _check(len(lp._ports) == len(table), "router port tables differ")
        for i, (peer, bw, extra, link, hop_inc) in enumerate(lp._ports):
            peer_router = table[i].peer_router
            _check(0 <= peer < n_lps and 0 <= link < n_links and bw > 0
                   and hop_inc in (0, 1) and -1 <= peer_router < n_routers,
                   "router %d port %d is out of range", rid, i)
            prows.extend((peer, link, rid, i, peer_router, hop_inc))
            plinks.extend((bw, extra))
        for nbr, cands in topo.ports_to_router[rid].items():
            _check(0 <= nbr < n_routers and cands
                   and all(0 <= p < len(table) for p in cands),
                   "router %d: bad candidate ports towards %d", rid, nbr)
            adj.extend((nbr, len(cand)))
            cand.extend(cands)
    rrows.extend((-1, len(plinks) // 2, len(adj) // 2))
    adj.extend((-1, len(cand)))

    trows = array("i")
    for lp in fabric.terminals:
        router = topo.router_of_node(lp.node)
        _check(0 <= router < n_routers, "node %d has no router", lp.node)
        port = topo.port_to_node[router][lp.node]
        _check(0 <= port < len(topo.router_ports[router])
               and 0 <= lp._uplink_id < n_links,
               "node %d has no terminal port", lp.node)
        trows.extend((lp.lp_id, router, fabric.routers[router].lp_id, port,
                      lp._uplink_id))

    dragonfly = isinstance(topo, Topology)
    gw, gp = array("i"), array("i")
    if dragonfly:
        groups = range(topo.n_groups)
        _flatten(gw, [topo.gateways[g1].get(g2, ())
                      for g1 in groups for g2 in groups], n_routers)
        lists = []
        for r in range(n_routers):
            table = topo.router_ports[r]
            for g in groups:
                plist = topo.global_ports_to_group[r].get(g, ())
                _check(all(0 <= p < len(table) and table[p].peer_router >= 0
                           for p in plist), "router %d: bad global ports", r)
                lists.append(plist)
        _flatten(gp, lists, 1 << 30)

    def local_tails(src: int, dst: int) -> array:
        """``topo.local_paths(src, dst)`` flattened: the number of
        tails, then each as (length, routers...)."""
        tails = topo.local_paths(src, dst)
        flat = array("i", (len(tails),))
        for tail in tails:
            flat.append(len(tail))
            flat.extend(tail)
        _check(tails and all(0 <= r < n_routers for t in tails for r in t)
               and len(flat) <= 4 * MAX_PATH,
               "unusable local paths %d->%d", src, dst)
        return flat

    adjacency, router_of = topo.ports_to_router, topo.router_of_node

    def checked_path(policy, src: int, dst_node: int) -> array:
        """One ``select_path`` of a policy the kernel does not
        implement, as ``[nonminimal, routers...]``.  The routers are
        walked against the port tables here, so the error a bad path
        raises in the Python router (``KeyError``) surfaces at once."""
        path, nonmin = policy.select_path(src, router_of(dst_node))
        if not 0 < len(path) <= MAX_PATH:
            raise ValueError(f"router path of {len(path)} hops")
        at = src
        for nxt in path[1:]:
            if nxt not in adjacency[at]:
                raise KeyError(nxt)
            at = nxt
        if at != router_of(dst_node):
            raise KeyError(dst_node)
        return array("i", (bool(nonmin), src, *path[1:]))

    counter = fabric.app_counter
    scalars = (
        n_links, cfg.packet_bytes,
        topo.n_groups if dragonfly else 0,
        topo.routers_per_group if dragonfly else 1,
        float(cfg.terminal_bw), cfg.terminal_latency + cfg.router_delay,
        float(counter.window) if fabric.app_record is not None else 0.0,
        fabric.load_record is not None,
    )
    objs = (
        list(fabric.routers),
        [lp.busy_until for lp in fabric.routers],
        [lp.pending_starts for lp in fabric.routers],
        list(fabric.terminals),
        [lp.inj_queue for lp in fabric.terminals],
        fabric.link_loads._bytes, fabric._pkt_seq,
        fabric.total_packets, fabric.nonmin_packets,
        counter._bins, counter.record,
        fabric._resident_injected, fabric._resident_delivered,
        local_tails, checked_path,
    )
    return scalars, rrows, prows, plinks, trows, adj, cand, gw, gp, objs


def set_policy(kernel, fabric, app_id: int | None, policy) -> None:
    """Install ``policy`` fabric-wide (``app_id`` None) or as one app's
    override.  Exactly :class:`MinimalRouting`/:class:`AdaptiveRouting`
    over this fabric's own topology and queue probe run natively on the
    policy's per-router streams; everything else (custom factories,
    :class:`FaultAwareRouting`, other topologies' policies) is asked
    through ``select_path`` once per packet."""
    kind = _NATIVE.get(type(policy), _PYTHON)
    if kind != _PYTHON and not (
            policy.topo is fabric.topo and isinstance(fabric.topo, Topology)
            and policy.probe is fabric._probe
            and len(policy._streams) == fabric.topo.n_routers):
        kind = _PYTHON
    if kind == _PYTHON:
        kernel.set_policy(app_id, kind, policy, None, b"", 0.0)
    else:
        bias = policy._bias if kind == 1 else 0.0
        states = array("Q", (s.state for s in policy._streams))
        kernel.set_policy(app_id, kind, policy, policy._streams, states,
                          float(bias))


def _check(ok, what: str, *args) -> None:
    """``what % args`` is only formatted on failure: the per-port checks
    run tens of thousands of times at paper scale."""
    if not ok:
        raise ValueError(f"cannot adopt fabric: {what % args}")


def _flatten(out: array, lists, bound: int) -> None:
    """``lists`` as ``len(lists) + 1`` offsets into ``out`` itself,
    then the items (each in ``[0, bound)``)."""
    at = len(lists) + 1
    for items in lists:
        out.append(at)
        at += len(items)
    out.append(at)
    for items in lists:
        _check(all(0 <= x < bound for x in items), "topology table out of range")
        out.extend(items)
