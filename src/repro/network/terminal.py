"""Terminal (NIC) logical process: injection, segmentation, reassembly.

The terminal serializes outgoing packets onto its uplink at the terminal
bandwidth (so a rank's sends contend at its own NIC before they contend
in the network), selects each packet's route at the moment the packet
leaves (so adaptive routing sees fresh queue depths) and reassembles
arriving packets into messages, notifying the fabric when a message is
complete.

Like the router's output ports, the injection channel is tracked as a
``busy_until`` timestamp instead of per-packet ``inj_free`` self-events:
a message injected while the NIC is idle starts transmitting
synchronously, and a single ``drain`` event is scheduled only when the
injection FIFO transitions empty -> non-empty.  The invariant is: *a
drain event is pending iff the injection FIFO is non-empty*, and it
fires exactly at ``busy_until``.

Queued packets are plain ``(msg_id, app_id, dst_node, size, is_tail)``
tuples -- the NIC churns through one per packet transmission, and a
tuple allocates and unpacks measurably faster than a slotted object.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.network.config import NetworkConfig
from repro.network.packet import Packet
from repro.network.topology import Topology
from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import NetworkFabric

_NETWORK = Priority.NETWORK
#: ``(event kind, handler method name)`` of every event a terminal takes.
_HANDLER_NAMES = (
    ("pkt", "_on_pkt"),
    ("inj_done", "_on_inj_done"),
    ("drain", "_on_drain"),
    ("loopback", "_on_loopback"),
)


class TerminalLP(LP):
    """One compute node's network interface."""

    __slots__ = (
        "node",
        "topo",
        "config",
        "fabric",
        "inj_queue",
        "busy_until",
        "_src_router",
        "_router_lp",
        "_inject_latency",
        "_uplink_id",
        "_terminal_bw",
        "_router_of_node",
        "_sched",
        "_next_pkt_id",
        "_load_record",
    )

    #: Event kind -> handler, called as ``handler(self, data)``.  One
    #: table per class (see ``__init_subclass__``), so a subclass
    #: override of a handler still wins.
    _handlers: dict[str, Callable[[TerminalLP, Any], None]]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._index_handlers()

    @classmethod
    def _index_handlers(cls) -> None:
        cls._handlers = {kind: getattr(cls, name) for kind, name in _HANDLER_NAMES}

    def __init__(self, node: int, topo: Topology, config: NetworkConfig, fabric: "NetworkFabric") -> None:
        super().__init__()
        self.node = node
        self.topo = topo
        self.config = config
        self.fabric = fabric
        self.inj_queue: deque[tuple[int, int, int, int, bool]] = deque()
        #: Timestamp until which the injection channel is occupied.
        self.busy_until: float = 0.0
        self._src_router = topo.router_of_node(node)
        # Uplink shares the terminal link's load accounting with the downlink.
        uplink = topo.router_ports[self._src_router][topo.port_to_node[self._src_router][node]]
        self._uplink_id = uplink.link_id
        self._inject_latency = config.terminal_latency + config.router_delay
        self._terminal_bw = config.terminal_bw
        # Resolved by wire_ports().
        self._router_lp = -1
        self._sched = None
        self._next_pkt_id = None
        self._router_of_node = None
        # Telemetry hook; None when link accounting is disabled.
        self._load_record = fabric.load_record

    def wire_ports(self, sched, next_pkt_id, router_of_node) -> None:
        """Resolve hot-path constants (called by the fabric after every
        router and terminal LP has been registered, with the callables
        every LP shares: the engine's ``schedule_fast``, the fabric's
        ``next_packet_id`` and the topology's ``router_of_node`` -- a
        call, not an inlined division, because custom topologies
        duck-type the fabric contract through it)."""
        self._router_lp = self.fabric.router_lp_id(self._src_router)
        self._sched = sched
        self._next_pkt_id = next_pkt_id
        self._router_of_node = router_of_node

    # -- sending ---------------------------------------------------------
    def inject_message(self, msg_id: int, app_id: int, dst_node: int, size: int) -> None:
        """Segment a message into packets and queue them for injection.

        Called synchronously by the fabric from within an event handler.
        """
        q = self.inj_queue
        drain_pending = bool(q)
        psize = self.config.packet_bytes
        remaining = size
        first = True
        while remaining > 0 or first:
            chunk = psize if remaining > psize else (remaining if remaining > 0 else 0)
            remaining -= chunk
            q.append((msg_id, app_id, dst_node, chunk, remaining <= 0))
            first = False
        if drain_pending:
            return
        if self.engine.now >= self.busy_until:
            # NIC idle: the first packet starts transmitting right now.
            self._start_next()
            if q:
                self._sched(self.busy_until, self.lp_id, "drain", None, _NETWORK, self.lp_id)
        else:
            # Mid-transmission with an empty FIFO: the queue just became
            # non-empty, so schedule the one drain at the busy boundary.
            self._sched(self.busy_until, self.lp_id, "drain", None, _NETWORK, self.lp_id)

    def _start_next(self) -> None:
        msg_id, app_id, dst_node, size, is_tail = self.inj_queue.popleft()
        fab = self.fabric
        src_router = self._src_router
        path, nonmin = fab.routing_for(app_id).select_path(
            src_router, self._router_of_node(dst_node)
        )
        fab.on_packet_routed(app_id, nonmin)
        pkt = Packet(
            self._next_pkt_id(self.node), msg_id, app_id, self.node, dst_node, size, path, nonmin
        )
        done = self.engine.now + size / self._terminal_bw
        self.busy_until = done
        sched = self._sched
        sched(done + self._inject_latency, self._router_lp, "pkt", pkt, _NETWORK, self.lp_id)
        rec = self._load_record
        if rec is not None:
            rec(self._uplink_id, size)
        if is_tail:
            # Injection-complete notification must fire *at* `done`, not now.
            sched(done, self.lp_id, "inj_done", msg_id, _NETWORK, self.lp_id)

    # -- event handling ------------------------------------------------------
    def handle(self, event: Event) -> None:
        # One dict lookup replaces a chain of string comparisons on the
        # per-packet hot path.
        handler = self._handlers.get(event.kind)
        if handler is None:  # pragma: no cover - defensive
            raise ValueError(f"terminal {self.node} got unknown event kind {event.kind!r}")
        handler(self, event.data)

    def _on_pkt(self, pkt: Packet) -> None:
        self.fabric.on_packet_delivered(pkt, self.engine.now)

    def _on_inj_done(self, msg_id: int) -> None:
        self.fabric.on_message_injected(msg_id, self.engine.now)

    def _on_drain(self, _data: None) -> None:
        self._start_next()
        if self.inj_queue:
            self._sched(self.busy_until, self.lp_id, "drain", None, _NETWORK, self.lp_id)

    def _on_loopback(self, msg_id: int) -> None:
        self.fabric.on_loopback(msg_id, self.engine.now)


TerminalLP._index_handlers()
