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

The ranks of a :class:`~repro.mpi.engine.SimMPI` on a resident fabric
are adopted the same way, when the runtime starts (:func:`adopt_ranks`,
through the engine's ``adopt_ranks``): the kernel then runs their
matching, requests, waits, compute wakeups and collective schedules
(``_ranks.c``), and the engine reports ``ranks`` / ``ranks_reason``.

The adoption row, in ``kernel.adopt`` argument order.  It is derived
from the topology's flat port table
(:attr:`~repro.network.topology.PortGraph.port_rows`) with whole-array
operations -- a paper-scale fabric has ~65k ports, too many to visit
one by one in Python -- and every index is range-checked *here*, as a
min/max over the arrays; ``_kernel.c`` re-checks only sizes.  The integer tables are C-contiguous ``intc`` buffers, the
float one ``double``:

``scalars``
    ``(n_links, packet_bytes, n_groups, routers_per_group, terminal_bw,
    inject_latency, app_window, load_on)``; ``n_groups`` is 0 when the
    topology has no dragonfly tables (then only Python policies route),
    ``app_window`` is 0.0 when ``net.router.app.bytes`` is disabled.
``rrows``
    One ``(lp_id, first_port, first_adj)`` row per
    router plus a closing ``(-1, n_ports, n_adj)`` row (``rrow_t``).
``prows`` / ``plinks``
    Per port, router-major, ``(peer_lp, link_id, router, port,
    peer_router, hop_increment)`` (``prow_t``; ``peer_router`` -1 on a
    terminal port) and ``(bandwidth, post_tx_latency)`` (``plink_t``).
``trows``
    Per node ``(lp_id, router, router_lp, eject_port,
    uplink_id)`` (``trow_t``).
``adj`` / ``cand``
    Per (router, neighbour) slot ``(neighbour, first_cand)`` plus a
    closing row; ``cand`` lists the candidate ports
    (``topo.ports_to_router``, in its order).
``gw`` / ``gp``
    ``topo.gateways`` and ``topo.global_ports_to_group``
    as ``n_groups**2 + 1`` / ``n_routers * n_groups + 1`` offsets into
    the same array, then the items (empty when ``n_groups`` is 0).
``objs``
    The Python objects the kernel mirrors its state into and the
    callables it enters Python through, in ``_kernel.c``'s ``O_*``
    order: seven lists (router LPs, their ``busy_until`` lists, their
    ``pending_starts`` lists -- a port's slot is the empty tuple until
    its first queued packet, and the kernel allocates the deque then,
    as ``RouterLP`` does --, terminal LPs, their ``inj_queue`` deques,
    ``link_loads._bytes``, ``_pkt_seq``), two dicts (``total_packets``,
    ``nonmin_packets``), then ``app_counter._bins``,
    ``app_counter.record``, ``fabric.on_message_injected``,
    ``fabric._resident_delivered``, ``local_tails``, ``checked_path``.
    The mirrors are written when Python can read them (the coherence
    points in ``docs/engines.md``), not at every call into these
    seams: the two per-message seams see them as of the last write-back.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np

from repro.mpi import types
from repro.mpi.engine import LATENCY_HISTOGRAM_FAMILY, SimMPI
from repro.network.config import LinkClass
from repro.network.router import RouterLP
from repro.network.routing import AdaptiveRouting, MinimalRouting
from repro.network.terminal import TerminalLP
from repro.network.topology import PortGraph, Topology

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
    if not isinstance(fabric.topo, PortGraph):
        return (f"topology {type(fabric.topo).__name__} is not a PortGraph "
                "(it keeps no flat port table)")
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
    """The adoption row, from the topology's flat port table with
    whole-array operations; every range check runs as a min/max over
    the arrays."""
    topo, cfg = fabric.topo, fabric.config
    n_routers, n_nodes, n_links = topo.n_routers, topo.n_nodes, topo.n_links
    table = np.frombuffer(array("i", topo.port_rows), dtype=np.intc).reshape(-1, 5)
    _check(len(table) == n_links, "%d ports for %d links", len(table), n_links)
    router, port, cls, peer_router, peer_node = table.T
    _in_range(router, n_routers, "a port's router")
    _in_range(cls, len(LinkClass), "a link class")
    term = cls == LinkClass.TERMINAL
    _in_range(peer_router[~term], n_routers, "a port's peer router")
    _in_range(peer_node[term], n_nodes, "a terminal port's node")

    # Ports in the kernel's order, router-major: a stable sort by router
    # keeps each router's ports in creation order, which must be
    # port-id order (ids 0..k-1, as many as the router LP wired).
    counts = np.bincount(router, minlength=n_routers)
    _check(np.array_equal(counts, [len(lp._ports) for lp in fabric.routers]),
           "router port tables differ")
    first_port = np.zeros(n_routers + 1, dtype=np.intp)
    np.cumsum(counts, out=first_port[1:])
    link = np.argsort(router, kind="stable")
    _check(np.array_equal(port[link], np.arange(n_links) - np.repeat(
        first_port[:-1], counts)), "router port ids are not 0..k-1")

    # RouterLP.wire_ports' constants: peer LP, per-class bandwidth and
    # post-transmit latency (computed the same way), hop increment.
    lp_of_router = np.fromiter((lp.lp_id for lp in fabric.routers), np.intp,
                               n_routers)
    lp_of_node = np.fromiter((lp.lp_id for lp in fabric.terminals), np.intp,
                             n_nodes)
    peer_lp = np.empty(n_links, dtype=np.intp)
    peer_lp[term] = lp_of_node[peer_node[term]]
    peer_lp[~term] = lp_of_router[peer_router[~term]]
    _in_range(peer_lp, len(fabric.engine.lps), "a port's peer LP")
    classes = list(LinkClass)
    bw = np.array([cfg.bandwidth(c) for c in classes], dtype=float)
    extra = np.array([cfg.terminal_latency if c == LinkClass.TERMINAL
                      else cfg.latency(c) + cfg.router_delay for c in classes])
    _check(bw.min() > 0, "a link bandwidth is not positive")
    prows = np.empty((n_links, 6), dtype=np.intc)
    prows[:, 0] = peer_lp[link]
    prows[:, 1] = link
    prows[:, 2] = router[link]
    prows[:, 3] = port[link]
    prows[:, 4] = np.where(term, -1, peer_router)[link]
    prows[:, 5] = ~term[link]
    plinks = np.empty((n_links, 2))
    plinks[:, 0] = bw[cls[link]]
    plinks[:, 1] = extra[cls[link]]

    # (router, neighbour) slots in ``ports_to_router``'s order -- by each
    # slot's first port -- with their candidate ports ascending.
    nbr_at = link[~term[link]]  # router-to-router links, router-major
    key = router[nbr_at].astype(np.int64) * n_routers + peer_router[nbr_at]
    _, first_of_key, inverse = np.unique(key, return_index=True,
                                         return_inverse=True)
    slot_of = first_of_key[inverse]
    by_slot = np.argsort(slot_of, kind="stable")
    cand = np.ascontiguousarray(port[nbr_at[by_slot]], dtype=np.intc)
    slot_first = np.sort(first_of_key)
    adj = np.empty((len(slot_first) + 1, 2), dtype=np.intc)
    adj[:-1, 0] = peer_router[nbr_at[slot_first]]
    adj[:-1, 1] = np.searchsorted(slot_of[by_slot], slot_first)
    adj[-1] = (-1, len(cand))
    rrows = np.empty((n_routers + 1, 3), dtype=np.intc)
    rrows[:-1, 0] = lp_of_router
    rrows[-1, 0] = -1
    rrows[:, 1] = first_port
    rrows[:, 2] = np.searchsorted(router[nbr_at[slot_first]],
                                  np.arange(n_routers + 1))

    # One terminal port per node: its link is the node's uplink too.
    uplink = np.full(n_nodes, -1, dtype=np.intp)
    uplink[peer_node[term]] = np.flatnonzero(term)
    _check(np.count_nonzero(term) == n_nodes and uplink.min() >= 0,
           "a node has no terminal port, or several")
    terminals = fabric.terminals
    _check(np.array_equal(uplink, np.fromiter(
        (lp._uplink_id for lp in terminals), np.intp, n_nodes))
        and np.array_equal(router[uplink], np.fromiter(
            (lp._src_router for lp in terminals), np.intp, n_nodes)),
        "a terminal LP disagrees with the port table")
    trows = np.empty((n_nodes, 5), dtype=np.intc)
    trows[:, 0] = lp_of_node
    trows[:, 1] = router[uplink]
    trows[:, 2] = lp_of_router[router[uplink]]
    trows[:, 3] = port[uplink]
    trows[:, 4] = uplink

    dragonfly = isinstance(topo, Topology)
    gw = gp = array("i")
    if dragonfly:
        n_groups, rpg = topo.n_groups, topo.routers_per_group
        groups = range(n_groups)
        gateways = [topo.gateways[g1].get(g2, ()) for g1 in groups for g2 in groups]
        gw = _offsets_then_items(
            np.fromiter(map(len, gateways), np.intp, len(gateways)),
            np.fromiter(chain.from_iterable(gateways), np.intp), n_routers)
        # global_ports_to_group[r][g]: r's global ports towards group g,
        # in creation order -- by definition (Topology._add_router_port).
        glob = np.flatnonzero(cls == LinkClass.GLOBAL)
        _check(n_groups * rpg == n_routers, "groups do not tile the routers")
        slot = router[glob].astype(np.intp) * n_groups + peer_router[glob] // rpg
        gp = _offsets_then_items(
            np.bincount(slot, minlength=n_routers * n_groups),
            port[glob[np.argsort(slot, kind="stable")]], 1 << 30)

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
        fabric.on_message_injected, fabric._resident_delivered,
        local_tails, checked_path,
    )
    return scalars, rrows, prows, plinks, trows, adj, cand, gw, gp, objs


def adopt_ranks(kernel, mpi, hosting: bool) -> str:
    """Make ``mpi``'s ranks resident in ``kernel`` (``mpi._ranks``: its
    job starts and rank starts call into it); returns ``""`` on success,
    else why they stay on SimMPI's Python executor.  ``hosting``: the
    kernel already runs another SimMPI's ranks."""
    reason = _rank_refusal(kernel, mpi, hosting)
    if reason:
        return reason
    kernel.adopt_ranks(
        (types.Isend, types.Irecv, types.Wait, types.Waitall, types.Compute,
         types.Sleep, types.Collective, types.Request, types.Message),
        mpi.fabric, mpi.fabric._msg_seq, mpi._finish_rank,
        float(mpi.fabric.config.terminal_latency))
    mpi._ranks = kernel
    return ""


def _rank_refusal(kernel, mpi, hosting: bool) -> str:
    if hosting:
        return "the engine already hosts resident ranks"
    if type(mpi) is not SimMPI:
        return f"the runtime is a SimMPI subclass ({type(mpi).__name__})"
    if mpi.fabric._resident is not kernel:
        return "the fabric is not resident"
    if mpi.op_handlers:
        names = ", ".join(sorted(t.__name__ for t in mpi.op_handlers))
        return f"extension op handlers are registered ({names})"
    if mpi._lat_rec is not None:
        return f"{LATENCY_HISTOGRAM_FAMILY} histograms are enabled"
    return ""


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
    """``what % args`` is only formatted on failure."""
    if not ok:
        raise ValueError(f"cannot adopt fabric: {what % args}")


def _in_range(values, hi: int, what: str) -> None:
    """Every one of ``values`` (an array) lies in ``[0, hi)``."""
    _check(not len(values) or (values.min() >= 0 and values.max() < hi),
           "%s is out of range", what)


def _offsets_then_items(counts, items, bound: int):
    """A table of lists: ``len(counts) + 1`` offsets into the returned
    array itself, then ``items`` (each in ``[0, bound)``), list after
    list."""
    _in_range(items, bound, "a topology table entry")
    out = np.empty(len(counts) + 1 + len(items), dtype=np.intc)
    out[0] = len(counts) + 1
    np.cumsum(counts, out=out[1:len(counts) + 1])
    out[1:len(counts) + 1] += len(counts) + 1
    out[len(counts) + 1:] = items
    return out
