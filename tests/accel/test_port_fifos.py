"""Per-port arrival FIFOs: a packet a router port has queued waits in
that port's FIFO inside the kernel, and only the port's earliest
pending arrival is an event-heap entry.

One port's arrivals leave in ``(time, priority, seq)`` order by
construction (docs/engines.md, "The resident fabric"), so the heap
stays as small as the number of busy ports while the committed event
sequence is the one a heap of every arrival would give -- also when a
fault rescales a port's bandwidth while its FIFO is deep.
"""

import random

import pytest

from repro.accel import KernelEngine, kernel_status
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.parallel import conservative_engine
from repro.pdes.sequential import SequentialEngine

pytestmark = pytest.mark.skipif(
    not kernel_status()["available"],
    reason=f"no compiled kernel: {kernel_status()['reason']}")

MSG_BYTES = 1 << 16


def storm(engine, topo, msgs, seed=1):
    """Every node sends ``msgs`` 64 KiB messages at t=0 to its partner
    in a seeded cyclic permutation (adaptive routing, four apps)."""
    fabric = NetworkFabric(topo, NetworkConfig(seed=seed), routing="adp",
                           engine=engine)
    log = []
    fabric.set_delivery_callback(
        lambda msg_id, meta, time: log.append((msg_id, time)))
    rng = random.Random(seed)
    partner = list(range(topo.n_nodes))
    for i in range(len(partner) - 1, 0, -1):  # Sattolo: no self-sends
        j = rng.randrange(i)
        partner[i], partner[j] = partner[j], partner[i]
    for node, dst in enumerate(partner):
        for _ in range(msgs):
            fabric.send_message(node % 4, node, dst, MSG_BYTES)
    return fabric, log


def test_storm_heap_holds_ports_not_packets():
    """The full 24-message storm queues hundreds of packets per hot
    port; a heap holding every queued packet peaked at 48,443 entries."""
    engine = KernelEngine()
    fabric, _ = storm(engine, Dragonfly1D.mini(), msgs=24)
    engine.run(until=1.0)
    assert fabric.messages_delivered == 24 * fabric.topo.n_nodes
    assert 0 < engine.heap_peak < 2_000


def degraded_storm(engine, topo):
    """A storm whose deepest port drops to a quarter of its bandwidth
    mid-queue and is restored later; what a sequential run would show."""
    fabric, log = storm(engine, topo, msgs=6)
    engine.run(until=1e-5)
    depth, rid, port = max((r.queue_depth(p), r.rid, p)
                           for r in fabric.routers
                           for p in range(len(r.busy_until)))
    assert depth >= 16, "no port is queued deeply enough to test"
    router = fabric.routers[rid]
    saved = router.scale_port_bandwidth(port, 0.25)
    engine.run(until=2.5e-5)
    assert router.queue_depth(port) > 1
    router.restore_port(port, saved)
    end = engine.run(until=1.0)
    return {
        "end": end,
        "events": engine.events_processed,
        "delivered": list(log),
        "link_bytes": list(fabric.link_loads._bytes),
        "total_packets": sorted(fabric.total_packets.items()),
        "nonmin_packets": sorted(fabric.nonmin_packets.items()),
        "busy_until": [list(r.busy_until) for r in fabric.routers],
        "forwarded": [r.packets_forwarded for r in fabric.routers],
        "streams": [s.state for s in fabric.routing._streams],
    }


@pytest.fixture(scope="module")
def sequential_degraded():
    return degraded_storm(SequentialEngine(), Dragonfly1D.mini())


@pytest.mark.parametrize("partitions", [None, 3])
def test_bandwidth_change_mid_queue_matches_sequential(sequential_degraded,
                                                       partitions):
    topo = Dragonfly1D.mini()
    engine = (KernelEngine() if partitions is None else conservative_engine(
        topo, NetworkConfig(seed=1), partitions, engine_cls=KernelEngine))
    got = degraded_storm(engine, topo)
    assert engine.fabric == "resident"
    assert got == sequential_degraded


@pytest.mark.parametrize("engine_cls", [SequentialEngine, KernelEngine])
def test_non_positive_port_bandwidth_is_rejected(engine_cls):
    """A port FIFO's order rests on ``bw > 0``; a zero factor is refused
    at the call, on both engines, and leaves the port as it was."""
    fabric, log = storm(engine_cls(), Dragonfly1D.mini(), msgs=1)
    router = fabric.routers[0]
    before = list(router._ports)
    for factor in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            router.scale_port_bandwidth(0, factor)
    assert router._ports == before
    fabric.engine.run(until=1.0)
    assert len(log) == fabric.topo.n_nodes


def test_kernel_refuses_non_positive_port_bandwidth():
    fabric, _ = storm(KernelEngine(), Dragonfly1D.mini(), msgs=1)
    for bw in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            fabric._resident.set_port_bw(0, 0, bw)
