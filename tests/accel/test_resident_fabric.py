"""Parity of everything the compiled kernel owns once a fabric is
resident: the C SplitMix, router forwarding, NIC drain, minimal/UGAL
path selection, delivery and reassembly -- each compared with the
pure-Python :class:`SequentialEngine` on *full state*, not on a digest.

"Full state" is what the ownership contract promises Python sees at
every entry (docs/engines.md, "Accelerated kernels"): link bytes, the
per-app windowed series including dict order, packet totals, every
router's ``busy_until`` / ``pending_starts`` / ``packets_forwarded``,
every terminal's ``inj_queue`` / ``busy_until``, packet-id counters and
every routing stream's state.
"""

import random

import pytest

from repro.accel import KernelEngine, kernel_status, load_kernel
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.dragonfly2d import Dragonfly2D
from repro.network.fabric import NetworkFabric
from repro.network.torus import TorusTopology, torus_routing_factory
from repro.parallel import conservative_engine
from repro.pdes.lp import LP
from repro.pdes.rng import SplitMix
from repro.pdes.sequential import SequentialEngine
from repro.scenario import oracle, parse_scenario, run_scenario
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(
    not kernel_status()["available"],
    reason=f"no compiled kernel: {kernel_status()['reason']}")


# -- the C SplitMix ----------------------------------------------------------

@pytest.mark.parametrize("seed, stream_id", [
    (0, 0), (1, 1), (11, (1 << 20) | 5), (2**63 + 5, (101 << 20) | 3),
    (123456789, 2**40 + 17), (-3, 7),
])
def test_splitmix_matches_pdes_rng(seed, stream_id):
    ref = SplitMix(seed, stream_id)
    assert load_kernel().splitmix(seed, stream_id, 10_000) == [
        ref.next_u64() for _ in range(10_000)]


# -- a storm with every message shape, driven three ways ----------------------

class Injector(LP):
    """A generic Python LP: each event makes it send one message, so
    injection happens mid-run from a Python row (inject re-enters the
    kernel while it is dispatching)."""

    def __init__(self, fabric):
        super().__init__()
        self.fabric = fabric

    def handle(self, event):
        app, src, dst, size = event.data
        self.fabric.send_message(app, src, dst, size, meta=("late", src))


def build(engine, topo, routing="adp", seed=1, telemetry=None, override=True,
          raise_at=None, msgs=2, late=True, window=2e-6):
    """A fabric on ``engine`` with traffic injected from the environment
    at t=0 and from a Python LP later: multi-packet messages with a
    short tail, one-packet and zero-byte messages, self-sends, a
    per-app routing override, and a delivery callback that answers some
    messages (a send from inside a kernel seam)."""
    cfg = NetworkConfig(seed=seed)
    fabric = NetworkFabric(topo, cfg, routing=routing, engine=engine,
                           counter_window=window, telemetry=telemetry)
    if override:
        fabric.set_app_routing(2, "min" if routing == "adp" else "adp")
    log = []

    def on_delivery(msg_id, meta, time):
        log.append(("d", msg_id, time))
        if raise_at is not None and len(log) >= raise_at:
            raise RuntimeError("delivery callback failed")
        if meta is not None and meta[0] == "ask":
            fabric.send_message(3, meta[2], meta[1], 100, meta=("answer",))

    def on_injected(msg_id, meta, time):
        log.append(("i", msg_id, time))

    fabric.set_delivery_callback(on_delivery)
    fabric.set_injection_callback(on_injected)
    rng = random.Random(seed)
    n = topo.n_nodes
    sizes = (1 << 16, 4096 * 3 + 100, 4096, 1, 0)
    for node in range(n):
        for k in range(msgs):
            dst = rng.randrange(n)  # sometimes the node itself
            size = sizes[(node + k) % len(sizes)]
            fabric.send_message(node % 4, node, dst, size,
                                meta=("ask", node, dst) if k == 0 else None)
    if not late:  # (a partitioned engine: the injector would break lookahead)
        return fabric, log
    injector = Injector(fabric)
    engine.register(injector)
    for i in range(40):
        engine.schedule_at(1e-6 + i * 3.7e-7, injector.lp_id, "go",
                           (i % 4, rng.randrange(n), rng.randrange(n),
                            sizes[i % len(sizes)]))
    return fabric, log


def full_state(fabric, log):
    policies = [fabric.routing, *fabric._app_routing.values()]
    return {
        "now": fabric.engine.now,
        "events": fabric.engine.events_processed,
        "pending": (fabric.engine.pending_floor()
                    if hasattr(fabric.engine, "pending_floor")
                    else fabric.engine.peek_time()),
        "sent": fabric.messages_sent,
        "delivered": fabric.messages_delivered,
        "in_flight": sorted(fabric._msgs),
        "total_packets": list(fabric.total_packets.items()),
        "nonmin_packets": list(fabric.nonmin_packets.items()),
        "link_bytes": list(fabric.link_loads._bytes),
        "app_bins": [(k, list(v.items()))
                     for k, v in fabric.app_counter._bins.items()],
        "app_edges": {k: dict(v)
                      for k, v in fabric.app_counter._edge_bins.items()},
        "busy_until": [list(r.busy_until) for r in fabric.routers],
        "pending_starts": [[list(d) for d in r.pending_starts]
                           for r in fabric.routers],
        "forwarded": [r.packets_forwarded for r in fabric.routers],
        "queue_depth": [[r.queue_depth(p) for p in range(len(r.busy_until))]
                        for r in fabric.routers],
        "nic_busy": [t.busy_until for t in fabric.terminals],
        "inj_queue": [list(t.inj_queue) for t in fabric.terminals],
        "pkt_seq": list(fabric._pkt_seq),
        "streams": [[s.state for s in p._streams] for p in policies],
        "bound": [p._streams.index(p.rng) for p in policies],
        "log": list(log),
    }


def assert_same(got, want):
    for key in want:
        assert got[key] == want[key], f"{key} differs from the sequential run"


TOPOLOGIES = {"1d": Dragonfly1D.mini, "2d": Dragonfly2D.mini}
HORIZON = 4e-5


def reference(topo_name, routing, **kw):
    fabric, log = build(SequentialEngine(), TOPOLOGIES[topo_name](), routing,
                        **kw)
    fabric.engine.run(until=HORIZON)
    return fabric, log


@pytest.mark.parametrize("routing", ["min", "adp"])
@pytest.mark.parametrize("topo_name", ["1d", "2d"])
def test_one_run_matches_sequential(topo_name, routing):
    ref_fabric, ref_log = reference(topo_name, routing)
    engine = KernelEngine()
    fabric, log = build(engine, TOPOLOGIES[topo_name](), routing)
    assert (engine.fabric, engine.fabric_reason) == ("resident", "")
    engine.run(until=HORIZON)
    assert_same(full_state(fabric, log), full_state(ref_fabric, ref_log))
    assert fabric.messages_delivered > 0 and fabric.in_flight() == 0


@pytest.mark.parametrize("routing", ["min", "adp"])
@pytest.mark.parametrize("topo_name", ["1d", "2d"])
def test_twenty_steps_match_sequential_at_every_boundary(topo_name, routing):
    """State is compared -- and every port's queue depth probed, which
    prunes the Python deques behind the kernel's back -- after each of
    20 slices, on both engines."""
    ref_fabric, ref_log = build(SequentialEngine(), TOPOLOGIES[topo_name](),
                                routing)
    engine = KernelEngine()
    fabric, log = build(engine, TOPOLOGIES[topo_name](), routing)
    for k in range(1, 21):
        until = HORIZON * k / 20
        ref_fabric.engine.step(until)
        engine.step(until)
        assert_same(full_state(fabric, log), full_state(ref_fabric, ref_log))


@pytest.mark.parametrize("routing", ["min", "adp"])
def test_budget_stop_and_resume_match_sequential(routing):
    ref_fabric, ref_log = build(SequentialEngine(), Dragonfly1D.mini(), routing)
    engine = KernelEngine()
    fabric, log = build(engine, Dragonfly1D.mini(), routing)
    for budget in (1, 777, 5000):
        ref_fabric.engine.run(until=HORIZON, max_events=budget)
        engine.run(until=HORIZON, max_events=budget)
        assert_same(full_state(fabric, log), full_state(ref_fabric, ref_log))
    ref_fabric.engine.run(until=HORIZON)
    engine.run(until=HORIZON)
    assert_same(full_state(fabric, log), full_state(ref_fabric, ref_log))


def test_raising_delivery_callback_leaves_accurate_state():
    """The callback raises mid-run, inside a kernel seam: the exception
    propagates, and counters and mirrors are what the sequential engine
    shows after the same raise; both engines then resume identically."""
    def run(engine):
        fabric, log = build(engine, Dragonfly1D.mini(), "adp", raise_at=60)
        with pytest.raises(RuntimeError, match="delivery callback failed"):
            engine.run(until=HORIZON)
        state = full_state(fabric, log)
        fabric.set_delivery_callback(lambda *a: log.append(("d2", a[0], a[2])))
        engine.run(until=HORIZON)
        return state, full_state(fabric, log)

    ref_raised, ref_done = run(SequentialEngine())
    raised, done = run(KernelEngine())
    assert_same(raised, ref_raised)
    assert_same(done, ref_done)
    assert raised["events"] > 0


def test_net_telemetry_disabled_matches_sequential_with_it_disabled():
    def run(engine):
        fabric, log = build(engine, Dragonfly1D.mini(), "adp",
                            telemetry=Telemetry(disable=("net.*",)))
        engine.run(until=HORIZON)
        return fabric, full_state(fabric, log)

    ref_fabric, ref = run(SequentialEngine())
    engine = KernelEngine()
    fabric, got = run(engine)
    assert engine.fabric == "resident"
    assert_same(got, ref)
    assert not any(fabric.link_loads._bytes) and not fabric.app_counter._bins


def test_record_exactly_on_a_window_edge_matches():
    """A full packet injected at t=0 reaches its router at exactly one
    counter window: the record lands on a bin edge, which is the one
    case the kernel hands to ``WindowedAppCounter.record`` itself."""
    cfg = NetworkConfig()
    window = 4096 / cfg.terminal_bw + (cfg.terminal_latency + cfg.router_delay)

    def run(engine):
        fabric, log = build(engine, Dragonfly1D.mini(), "adp", window=window)
        engine.run(until=HORIZON)
        return fabric, full_state(fabric, log)

    ref_fabric, ref = run(SequentialEngine())
    fabric, got = run(KernelEngine())
    assert_same(got, ref)
    assert any(ref_fabric.app_counter._edge_bins.values())


@pytest.mark.parametrize("partitions", [2, 3])
def test_conservative_windows_commit_natively_and_match(partitions):
    topo = Dragonfly1D.mini()
    cfg = NetworkConfig(seed=1)
    ref_engine = conservative_engine(topo, cfg, partitions)
    ref_fabric, ref_log = build(ref_engine, topo, "adp", late=False)
    ref_engine.run(until=HORIZON)
    topo2 = Dragonfly1D.mini()
    engine = conservative_engine(topo2, cfg, partitions,
                                 engine_cls=KernelEngine)
    fabric, log = build(engine, topo2, "adp", late=False)
    assert engine.fabric == "resident"
    engine.run(until=HORIZON)
    assert_same(full_state(fabric, log), full_state(ref_fabric, ref_log))
    assert engine.windows_executed == ref_engine.windows_executed > 0
    assert engine.committed_by_partition == ref_engine.committed_by_partition
    assert engine.max_window_events == ref_engine.max_window_events


# -- the escape seams -------------------------------------------------------

def test_python_policy_is_asked_once_per_packet_and_matches():
    """A torus policy is not one the kernel implements: the fabric is
    still resident, path selection is the one Python call per packet,
    and a 24-ring's paths outgrow the packet's inline storage."""
    def run(engine):
        topo = TorusTopology(dims=(24,), nodes_per_router=2)
        fabric, log = build(engine, topo, torus_routing_factory(),
                            override=False)
        calls = []
        inner = fabric.routing.select_path
        fabric.routing.select_path = lambda s, d: (calls.append(1),
                                                   inner(s, d))[1]
        engine.run(until=HORIZON)
        return fabric, calls, full_state(fabric, log)

    ref_fabric, ref_calls, ref = run(SequentialEngine())
    engine = KernelEngine()
    fabric, calls, got = run(engine)
    assert engine.fabric == "resident"
    assert_same(got, ref)
    # (the packets that left at t=0 were routed before the counting
    # wrapper went in, on both engines alike)
    assert 0 < len(calls) == len(ref_calls) <= sum(fabric.total_packets.values())


def fault_spec(engine):
    return parse_scenario({
        "name": "resident-faults", "seed": 5, "horizon": 0.002,
        "topology": {"network": "1d", "scale": "mini"},
        "routing": "adp", "engine": engine,
        "jobs": [{"name": "ur", "app": "ur", "nranks": 16,
                  "params": {"iters": 6, "msg_bytes": 16384}}],
        "faults": [
            {"name": "slow", "kind": "link-degrade", "start": 1e-5,
             "duration": 4e-4, "router": 0, "router_b": 1, "factor": 0.25},
            {"name": "cut", "kind": "link-down", "start": 2e-5,
             "duration": 5e-4, "router": 2, "router_b": 3},
        ],
    })


def test_faults_stay_resident_and_match_sequential():
    """Bandwidth rescaling writes through to the kernel's port table and
    fault-aware rerouting goes through the policy seam: ``[[faults]]``
    does not cost the resident fabric."""
    result = run_scenario(fault_spec({"type": "accel-sequential"}))
    _, base = oracle.split(
        run_scenario(fault_spec({"type": "sequential"})).to_json_dict())
    info, doc = oracle.split(result.to_json_dict())
    assert doc == base
    assert (info["fabric"], info["fabric_reason"]) == ("resident", None)
    assert result.faults["transitions"] == 4


# -- adoption is refused loudly, never silently --------------------------------

def test_queue_sampling_keeps_the_fabric_in_python_and_says_so():
    def run(engine):
        telemetry = Telemetry(enable=("net.router.queue",))
        fabric, log = build(engine, Dragonfly1D.mini(), "adp",
                            telemetry=telemetry)
        engine.run(until=HORIZON)
        return fabric, full_state(fabric, log)

    ref_fabric, ref = run(SequentialEngine())
    engine = KernelEngine()
    fabric, got = run(engine)
    assert engine.fabric == "python"
    assert "net.router.queue" in engine.fabric_reason
    assert_same(got, ref)
    assert fabric.queue_series._bins == ref_fabric.queue_series._bins


def test_subclassed_lp_keeps_the_fabric_in_python(monkeypatch):
    import repro.network.fabric as fabric_mod

    class TracingRouter(fabric_mod.RouterLP):
        __slots__ = ()

    monkeypatch.setattr(fabric_mod, "RouterLP", TracingRouter)
    ref_fabric, ref_log = build(SequentialEngine(), Dragonfly1D.mini(), "adp")
    ref_fabric.engine.run(until=HORIZON)
    engine = KernelEngine()
    fabric, log = build(engine, Dragonfly1D.mini(), "adp")
    assert engine.fabric == "python"
    assert "TracingRouter" in engine.fabric_reason
    engine.run(until=HORIZON)
    assert_same(full_state(fabric, log), full_state(ref_fabric, ref_log))


def test_engine_without_a_fabric_says_so():
    engine = KernelEngine()
    assert engine.fabric == "python" and "no NetworkFabric" in engine.fabric_reason


def test_second_fabric_on_one_engine_runs_in_python():
    engine = KernelEngine()
    NetworkFabric(Dragonfly1D.mini(), engine=engine)
    assert engine.fabric == "resident"
    NetworkFabric(Dragonfly1D.mini(), engine=engine)
    assert engine.fabric == "python"
    assert "already hosts" in engine.fabric_reason


def test_python_scheduled_pkt_event_to_a_resident_lp_is_refused():
    engine = KernelEngine()
    fabric = NetworkFabric(Dragonfly1D.mini(), engine=engine)
    engine.schedule_at(1e-6, fabric.routers[0].lp_id, "pkt", object())
    with pytest.raises(RuntimeError, match="Python-scheduled 'pkt'"):
        engine.run(until=1e-3)


# -- re-entry cost -----------------------------------------------------------

def test_idle_steps_do_constant_work():
    """1,000 step() calls that commit nothing: no dispatch rows are
    rebuilt (rows are installed once, at registration) and the flush
    finds nothing to write."""
    engine = KernelEngine()
    fabric, log = build(engine, Dragonfly1D.mini(), "adp")
    engine.run(until=HORIZON)
    kernel = engine._kernel
    events, writes = engine.events_processed, kernel.sync_ops
    assert writes > 0
    for k in range(1, 1001):
        engine.step(HORIZON + k * 1e-6)
    assert engine.events_processed == events
    assert kernel.sync_ops == writes
    # An LP registered between runs gets its row then, and is dispatched.
    late = Injector(fabric)
    engine.register(late)
    engine.schedule_at(engine.now + 1e-6, late.lp_id, "go", (0, 0, 5, 4096))
    engine.run(until=engine.now + 1e-3)
    assert engine.events_processed > events and fabric.in_flight() == 0
