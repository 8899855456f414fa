"""NetworkFabric: ties topology, routers, terminals and stats together.

The fabric is the message-level facade the MPI layer talks to: it
assigns message ids, segments/injects via the source terminal, tracks
reassembly, and invokes a delivery callback when the last byte of a
message reaches the destination terminal.

Measurement goes through one :class:`~repro.telemetry.Telemetry`
session (created here unless the caller shares its own): the classic
Section IV-D instruments -- per-app windowed router counters
(``net.router.app.bytes``) and link-load accounting
(``net.link.bytes``) -- are registered as telemetry instruments, with
``fabric.app_counter`` / ``fabric.link_loads`` kept as thin accessors
so existing experiments read them exactly as before.  Fabric-level
message totals are published as observable gauges (``net.fabric.*``),
and an opt-in per-port queue-occupancy series (``net.router.queue``,
off by default) samples FIFO depth at every packet arrival.  Disabled
families cost strictly nothing: the LPs bind ``None`` and skip the
record call entirely.

Construction wires every Router/Terminal LP onto one PDES engine and
resolves their per-port forwarding constants up front; from then on all
link serialization is tracked by the LPs' ``busy_until`` timestamps
(see ``router.py``/``terminal.py`` -- there are no per-packet
``free``-style bookkeeping self-events anywhere in the fabric).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.network.config import NetworkConfig
from repro.network.router import RouterLP
from repro.network.routing import FaultAwareRouting, make_routing
from repro.network.stats import LinkLoadAccounting, WindowedAppCounter
from repro.network.terminal import TerminalLP
from repro.network.topology import Topology
from repro.pdes.engine import Engine
from repro.pdes.event import Priority
from repro.telemetry import Telemetry

# Called as callback(msg_id, meta, completion_time)
DeliveryCallback = Callable[[int, Any, float], None]


class _MsgState:
    __slots__ = ("size", "remaining", "meta", "app_id", "injected_at", "dst_node")

    def __init__(self, size: int, meta: Any, app_id: int, dst_node: int) -> None:
        self.size = size
        self.remaining = size
        self.meta = meta
        self.app_id = app_id
        self.injected_at = -1.0
        self.dst_node = dst_node


class NetworkFabric:
    """A simulated interconnect instance.

    Parameters
    ----------
    topo:
        Any :class:`~repro.network.topology.PortGraph` (dragonfly,
        fat-tree, torus, slim fly, ...).
    config:
        Link/packet parameters.
    routing:
        ``"min"`` / ``"adp"`` (dragonfly policies), or a callable
        ``factory(topo, config, probe, stream_id) -> policy`` for other
        topologies (e.g. :func:`repro.network.torus.torus_routing_factory`).
    engine:
        PDES engine; by default a fresh
        :data:`~repro.registry.engines.DEFAULT_ENGINE` (the compiled
        kernel, which adopts this fabric, where it loads; else the
        plain sequential engine with the reason recorded).
    counter_window:
        Aggregation window of the per-app router counters (the paper
        uses 0.5 ms; mini-scale experiments shrink it proportionally).
    telemetry:
        The :class:`~repro.telemetry.Telemetry` session to register the
        fabric's instruments in.  A private all-defaults session is
        created when omitted (the historical behaviour); pass a shared
        one to co-locate network metrics with MPI/job metrics and to
        enable/disable metric families.
    """

    def __init__(
        self,
        topo: Topology,
        config: NetworkConfig | None = None,
        routing: str = "adp",
        engine: Engine | None = None,
        counter_window: float = 0.5e-3,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.topo = topo
        self.config = config or NetworkConfig()
        if engine is None:
            from repro.registry.engines import default_engine

            engine = default_engine(topo, self.config)
        self.engine = engine
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # The two Section IV-D instruments stay plain attributes (the
        # seed API), but live in the telemetry session like any other
        # instrument.  When a family is disabled the object still
        # exists -- series()/summary() read as empty -- yet the LPs
        # bind None below and never pay for the record call.
        # ``replace=True`` throughout: a fresh fabric on a shared
        # session supersedes a previous (finished) fabric's instruments
        # instead of crashing, so managers can re-run.
        self.app_counter = WindowedAppCounter(counter_window)
        self.link_loads = LinkLoadAccounting(topo)
        self.app_record = (
            self.app_counter.record
            if self.telemetry.register(self.app_counter, replace=True).enabled
            else None
        )
        self.load_record = (
            self.link_loads.record
            if self.telemetry.register(self.link_loads, replace=True).enabled
            else None
        )
        # Opt-in (off by default): per-port queue occupancy, sampled at
        # each packet arrival, aggregated per window by max.
        queue_series = self.telemetry.windowed(
            "net.router.queue", window=counter_window, unit="packets",
            doc="peak per-port FIFO depth per window, sampled at arrivals",
            agg="max", template="net.router.{}.port.{}.queue", default=False,
            replace=True,
        )
        self.queue_series = queue_series
        self.queue_record = queue_series.record if queue_series.enabled else None

        self.routers: list[RouterLP] = []
        self.terminals: list[TerminalLP] = []
        for r in range(topo.n_routers):
            lp = RouterLP(r, topo, self.config, self)
            self.engine.register(lp)
            self.routers.append(lp)
        for n in range(topo.n_nodes):
            lp = TerminalLP(n, topo, self.config, self)
            self.engine.register(lp)
            self.terminals.append(lp)
        # All LP ids exist now: let every LP resolve its forwarding
        # constants (peer LP ids, bandwidths, latencies) once, instead of
        # re-deriving them per packet on the hot path.  The hot-path
        # callables are resolved here once and shared by every LP: a
        # bound method per LP is an object per LP for nothing.
        sched = self.engine.schedule_fast
        next_pkt_id = self.next_packet_id
        router_of_node = topo.router_of_node
        for r_lp in self.routers:
            r_lp.wire_ports(sched)
        for t_lp in self.terminals:
            t_lp.wire_ports(sched, next_pkt_id, router_of_node)

        routers = self.routers

        def probe(router: int, port: int) -> int:
            return routers[router].queue_depth(port)

        if callable(routing):
            self.routing = routing(topo, self.config, probe, stream_id=1)
        else:
            self.routing = make_routing(routing, topo, self.config, probe, stream_id=1)
        self.routing_name = self.routing.name
        self._probe = probe
        # Per-application routing overrides ("routing police" per job, as
        # the paper's concurrent-workload support allows).
        self._app_routing: dict[int, Any] = {}
        #: Fault plane steering paths around dead elements; ``None``
        #: (the default) leaves every policy unwrapped.
        self.fault_plane = None

        self._msgs: dict[int, _MsgState] = {}
        # Message/packet ids are scoped per source node (node+1 in the
        # high bits, that node's own count in the low 32): each node's
        # id sequence depends only on its own send order, so a
        # partitioned run (repro.parallel.mp) assigns the exact ids the
        # sequential run would without any global counter.
        self._msg_seq = [0] * topo.n_nodes
        self._pkt_seq = [0] * topo.n_nodes
        #: Per-application count of packets routed non-minimally.
        self.nonmin_packets: dict[int, int] = {}
        self.total_packets: dict[int, int] = {}
        self._on_delivery: DeliveryCallback | None = None
        self._on_injected: Callable[[int, Any, float], None] | None = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0
        # Message totals as observable gauges: evaluated at export, so
        # publishing them costs nothing per message.  replace=True, or
        # a second fabric on the session would keep reading the first
        # fabric's (dead) closures.
        t = self.telemetry
        t.gauge("net.fabric.messages_sent", unit="messages", replace=True,
                doc="messages injected", fn=lambda: self.messages_sent)
        t.gauge("net.fabric.messages_delivered", unit="messages", replace=True,
                doc="messages fully delivered", fn=lambda: self.messages_delivered)
        t.gauge("net.fabric.bytes_sent", unit="bytes", replace=True,
                doc="payload bytes injected", fn=lambda: self.bytes_sent)
        # Windowing engines publish their window/partition stats as
        # pdes.conservative.* observable gauges.
        self.engine.bind_telemetry(t)
        # A compiled engine (repro.accel) may adopt the finished fabric:
        # its kernel then owns the LP state and the per-packet events,
        # and ``_resident`` becomes that kernel (repro.accel.dispatch)
        # for send_message() and sync() to call into.  Still ``None`` on every other
        # engine, and when the kernel declines (the engine records why
        # as ``fabric_reason``).
        self._resident = None
        self.engine.adopt_fabric(self)

    # -- LP id mapping ----------------------------------------------------
    def router_lp_id(self, router: int) -> int:
        return self.routers[router].lp_id

    def terminal_lp_id(self, node: int) -> int:
        return self.terminals[node].lp_id

    def next_packet_id(self, node: int) -> int:
        seq = self._pkt_seq
        pid = ((node + 1) << 32) | seq[node]
        seq[node] += 1
        return pid

    # -- fault injection --------------------------------------------------------
    def attach_fault_plane(self, plane) -> None:
        """Steer this fabric's path selection around ``plane``'s dead
        elements (:class:`repro.faults.FaultPlane` with down-kind
        faults).

        Wraps the fabric-wide policy and every existing and future
        per-app override in :class:`FaultAwareRouting`.  Fabrics without
        a plane attached are untouched -- same objects, same RNG draw
        sequence.
        """
        self.fault_plane = plane
        self.routing = FaultAwareRouting(self.routing, plane)
        self._app_routing = {
            app_id: FaultAwareRouting(policy, plane)
            for app_id, policy in self._app_routing.items()
        }
        self._policy_changed(None, self.routing)
        for app_id, policy in self._app_routing.items():
            self._policy_changed(app_id, policy)

    # -- per-application routing -----------------------------------------------
    def set_app_routing(self, app_id: int, routing) -> None:
        """Override the routing policy for one application's traffic.

        ``routing`` is a policy name (``"min"``/``"adp"``) or a factory
        like the constructor's ``routing`` parameter.  Each override gets
        its own RNG stream so adding one job's override never perturbs
        another job's path choices.
        """
        stream_id = 101 + app_id
        if callable(routing):
            policy = routing(self.topo, self.config, self._probe, stream_id=stream_id)
        else:
            policy = make_routing(routing, self.topo, self.config, self._probe, stream_id=stream_id)
        if self.fault_plane is not None:
            policy = FaultAwareRouting(policy, self.fault_plane)
        self._app_routing[app_id] = policy
        self._policy_changed(app_id, policy)

    def _policy_changed(self, app_id: int | None, policy) -> None:
        """Tell a resident kernel which policy now routes ``app_id``'s
        packets (``None``: the fabric-wide policy)."""
        if self._resident is not None:
            self.engine.set_fabric_policy(self, app_id, policy)

    def routing_for(self, app_id: int):
        """The routing policy used by ``app_id``'s packets."""
        return self._app_routing.get(app_id, self.routing)

    # -- callbacks -----------------------------------------------------------
    def set_delivery_callback(self, cb: DeliveryCallback) -> None:
        """Invoked as ``cb(msg_id, meta, time)`` when a message completes."""
        self._on_delivery = cb

    def set_injection_callback(self, cb: Callable[[int, Any, float], None]) -> None:
        """Invoked when a message's last packet leaves the source NIC."""
        self._on_injected = cb

    # -- message API -----------------------------------------------------------
    def send_message(self, app_id: int, src_node: int, dst_node: int, size: int, meta: Any = None) -> int:
        """Inject one message; returns its id.

        Must be called from within an event handler (engine time must be
        current).  ``size`` may be zero (control message).
        """
        if not 0 <= src_node < self.topo.n_nodes:
            raise ValueError(f"src_node {src_node} out of range")
        if not 0 <= dst_node < self.topo.n_nodes:
            raise ValueError(f"dst_node {dst_node} out of range")
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        seq = self._msg_seq
        msg_id = ((src_node + 1) << 32) | seq[src_node]
        seq[src_node] += 1
        self._msgs[msg_id] = _MsgState(size, meta, app_id, dst_node)
        self.messages_sent += 1
        self.bytes_sent += size
        if src_node == dst_node:
            # Self-send: a local memory copy, modeled at terminal bandwidth
            # plus one terminal latency, bypassing the network entirely.
            delay = size / self.config.terminal_bw + self.config.terminal_latency
            self.engine.schedule_fast(
                self.engine.now + delay,
                self.terminal_lp_id(dst_node),
                "loopback",
                msg_id,
                Priority.NETWORK,
            )
        elif self._resident is not None:
            self._resident.inject(msg_id, app_id, src_node, dst_node, size)
        else:
            self.terminals[src_node].inject_message(msg_id, app_id, dst_node, size)
        return msg_id

    # -- notifications from LPs ---------------------------------------------------
    def on_message_injected(self, msg_id: int, time: float) -> None:
        st = self._msgs[msg_id]
        st.injected_at = time
        if self._on_injected is not None:
            self._on_injected(msg_id, st.meta, time)

    def on_packet_delivered(self, pkt, time: float) -> None:
        st = self._msgs.get(pkt.msg_id)
        if st is None:  # pragma: no cover - defensive
            raise KeyError(f"packet for unknown message {pkt.msg_id}")
        st.remaining -= pkt.size
        if st.remaining <= 0:
            self._complete(pkt.msg_id, st, time)

    def on_loopback(self, msg_id: int, time: float) -> None:
        st = self._msgs[msg_id]
        st.injected_at = time
        if self._on_injected is not None:
            self._on_injected(msg_id, st.meta, time)
        self._complete(msg_id, st, time)

    def _complete(self, msg_id: int, st: _MsgState, time: float) -> None:
        del self._msgs[msg_id]
        self.messages_delivered += 1
        if self._on_delivery is not None:
            self._on_delivery(msg_id, st.meta, time)

    # -- seams of a resident fabric (called by the kernel, per message) ------
    # The kernel calls on_message_injected directly, and this one when a
    # message's last byte arrives.  Neither writes the kernel's state
    # back: callbacks see the mirrors as of the last sync (see sync()).
    def _resident_delivered(self, msg_id: int, time: float) -> None:
        st = self._msgs[msg_id]
        st.remaining = 0
        self._complete(msg_id, st, time)

    def sync(self) -> None:
        """Bring the Python mirrors of a resident fabric's state (link and
        per-app bytes, packet counters, router and NIC queues, routing
        streams) up to the current event; a no-op on any other fabric.

        The kernel already syncs wherever Python can read the model
        unasked -- when ``run()``/``step()`` returns, before a generic
        LP's handler or a Python ``select_path`` -- so only code inside
        a delivery or injection callback needs this to see the fabric
        as a sequential run would show it at that point.
        """
        if self._resident is not None:
            self._resident.flush()

    def on_packet_routed(self, app_id: int, nonmin: bool) -> None:
        """Terminal notification: one packet's route was chosen."""
        self.total_packets[app_id] = self.total_packets.get(app_id, 0) + 1
        if nonmin:
            self.nonmin_packets[app_id] = self.nonmin_packets.get(app_id, 0) + 1

    # -- inspection -------------------------------------------------------------
    def in_flight(self) -> int:
        """Messages injected but not yet fully delivered (always current,
        also for the messages resident ranks send natively)."""
        resident = self._resident
        return len(self._msgs) + (resident.mpi_in_flight if resident is not None else 0)

    def nonmin_fraction(self, app_id: int) -> float:
        """Fraction of ``app_id``'s packets that took a Valiant detour."""
        total = self.total_packets.get(app_id, 0)
        return self.nonmin_packets.get(app_id, 0) / total if total else 0.0
