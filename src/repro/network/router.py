"""Router logical process: output-queued, per-port serialized forwarding.

Each output port transmits one packet at a time at the link's bandwidth;
packets arriving while the port is busy wait in the port's FIFO.  This
serialization is the sole source of queueing delay in the model -- and
therefore of all congestion phenomena the paper measures (message-latency
inflation under interference, adaptive routing's reaction to queue
depth, hot links under random-node placement).

The forwarding path is *event-free* beyond the packet arrivals
themselves.  The output port is chosen at arrival (as in the original
CODES-style model), the FIFO discipline admits no preemption, and the
link bandwidth is fixed -- so a packet's transmit start is fully
determined the moment it arrives: ``start = max(now, busy_until)``.
The router therefore schedules the downstream arrival immediately and
advances ``busy_until`` by the packet's serialization time; no ``free``
or ``drain`` self-events exist at all.  The seed model spent one
self-event per forwarded packet on this bookkeeping -- half of all
router event traffic.

Queue depth (sensed by adaptive routing) is derived from the recorded
transmit-start times: a packet occupies the FIFO until its start time,
so the depth at ``now`` is the number of pending start times still in
the future, plus one while the transmitter is serializing
(``now < busy_until``).  Start times already passed are pruned lazily
on access.  A port's FIFO is only allocated when it first queues a
packet: until then its slot holds the shared empty tuple, which every
reader sees as an empty FIFO (a paper-scale fabric has tens of
thousands of ports, most of which never queue).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.network.config import LinkClass, NetworkConfig
from repro.network.packet import Packet
from repro.network.topology import Topology
from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import NetworkFabric

_NETWORK = Priority.NETWORK
#: ``pending_starts`` slot of a port that has not queued a packet yet.
_NO_FIFO = ()


class RouterLP(LP):
    """One dragonfly router."""

    __slots__ = (
        "rid",
        "topo",
        "config",
        "fabric",
        "pending_starts",
        "busy_until",
        "packets_forwarded",
        "_ports",
        "_port_to_node",
        "_ports_to_router",
        "_sched",
        "_app_record",
        "_load_record",
        "_queue_record",
    )

    def __init__(self, rid: int, topo: Topology, config: NetworkConfig, fabric: "NetworkFabric") -> None:
        super().__init__()
        self.rid = rid
        self.topo = topo
        self.config = config
        self.fabric = fabric
        n_ports = len(topo.router_ports[rid])
        #: Per-port transmit-start times of packets still waiting in the
        #: FIFO (ascending; pruned lazily once they pass), allocated on
        #: the port's first queued packet.
        self.pending_starts: list[deque[float] | tuple] = [_NO_FIFO] * n_ports
        #: Per-port timestamp until which the port's transmitter is occupied.
        self.busy_until: list[float] = [0.0] * n_ports
        self.packets_forwarded = 0
        self._port_to_node = topo.port_to_node[rid]
        self._ports_to_router = topo.ports_to_router[rid]
        # (peer_lp, bandwidth, post_tx_latency, link_id, hop_increment) per
        # port; resolved by wire_ports() once all LPs are registered.
        self._ports: list[tuple[int, float, float, int, int]] = []
        self._sched = None
        # Telemetry hooks; None when the family is disabled (the hot
        # path then skips the call entirely -- a disabled family costs
        # one is-None check per packet, nothing more).
        self._app_record = fabric.app_record
        self._load_record = fabric.load_record
        self._queue_record = fabric.queue_record

    def wire_ports(self, sched) -> None:
        """Resolve per-port forwarding constants (called by the fabric
        after every router and terminal LP has been registered, with the
        engine's ``schedule_fast`` every LP shares)."""
        cfg = self.config
        self._ports = []
        for p in self.topo.router_ports[self.rid]:
            bw = cfg.bandwidth(p.link_class)
            if p.link_class == LinkClass.TERMINAL:
                peer = self.fabric.terminal_lp_id(p.peer_node)
                extra = cfg.terminal_latency
                hop_inc = 0
            else:
                peer = self.fabric.router_lp_id(p.peer_router)
                extra = cfg.latency(p.link_class) + cfg.router_delay
                hop_inc = 1
            self._ports.append((peer, bw, extra, p.link_id, hop_inc))
        self._sched = sched

    # -- fault hooks (used by repro.faults) ---------------------------------
    def scale_port_bandwidth(self, port: int, factor: float) -> tuple:
        """Scale one output port's link bandwidth; returns the previous
        port state for :meth:`restore_port`.

        The per-port forwarding constants are read per arrival, so a
        rewrite takes effect for every packet that starts serializing
        after it -- packets already on the wire keep their departure
        times, exactly as a mid-flight physical degradation would.
        """
        state = self._ports[port]
        peer, bw, extra, link_id, hop_inc = state
        self.restore_port(port, (peer, bw * factor, extra, link_id, hop_inc))
        return state

    def restore_port(self, port: int, state: tuple) -> None:
        """Restore a port state saved by :meth:`scale_port_bandwidth`."""
        self._ports[port] = state
        resident = self.fabric._resident
        if resident is not None:
            # the kernel forwards this router's packets: write through
            resident.set_port_bw(self.rid, port, state[1])

    # -- queue sensing (used by adaptive routing) ---------------------------
    def queue_depth(self, port: int) -> int:
        """Packets occupying the port: waiting in the FIFO or on the wire."""
        now = self.engine.now
        dq = self.pending_starts[port]
        while dq and dq[0] <= now:
            dq.popleft()
        occupied = 1 if now < self.busy_until[port] else 0
        return len(dq) + occupied

    # -- event handling ------------------------------------------------------
    def handle(self, event: Event) -> None:
        if event.kind != "pkt":  # pragma: no cover - defensive
            raise ValueError(f"router {self.rid} got unknown event kind {event.kind!r}")
        self._on_arrival(event.data)

    def _on_arrival(self, pkt: Packet) -> None:
        now = self.engine.now
        size = pkt.size
        rec = self._app_record
        if rec is not None:
            rec(self.rid, pkt.app_id, now, size)
        port = self._select_port(pkt)
        peer_lp, bw, extra, link_id, hop_inc = self._ports[port]
        start = self.busy_until[port]
        if start > now:
            # Port busy: the packet waits in the FIFO until its
            # (already determined) transmit start.  Prune starts that
            # have passed so the deque stays bounded by the actual FIFO
            # depth even when no probe ever reads this port.
            dq = self.pending_starts[port]
            if dq is _NO_FIFO:
                dq = self.pending_starts[port] = deque()
            else:
                while dq and dq[0] <= now:
                    dq.popleft()
            dq.append(start)
        else:
            start = now
        done = start + size / bw
        self.busy_until[port] = done
        rec = self._load_record
        if rec is not None:
            rec(link_id, size)
        rec = self._queue_record
        if rec is not None:
            # Packets occupying the port right after this arrival: the
            # FIFO backlog plus the one on the wire (busy_until > now
            # always holds here -- this packet is at least serializing).
            # Prune passed starts first; the idle-arrival path above
            # does not, and stale entries would inflate the sample.
            dq = self.pending_starts[port]
            while dq and dq[0] <= now:
                dq.popleft()
            rec((self.rid, port), now, len(dq) + 1)
        self.packets_forwarded += 1
        pkt.hop += hop_inc
        self._sched(done + extra, peer_lp, "pkt", pkt, _NETWORK, self.lp_id)

    def _select_port(self, pkt: Packet) -> int:
        path = pkt.path
        if pkt.hop == len(path) - 1:
            return self._port_to_node[pkt.dst_node]
        next_router = path[pkt.hop + 1]
        candidates = self._ports_to_router[next_router]
        if len(candidates) == 1:
            return candidates[0]
        # Parallel links to the same neighbour: take the shallowest queue.
        return min(candidates, key=self.queue_depth)

