"""Design-choice ablations (DESIGN.md Section 4).

Not a paper table -- these benches quantify the substrate (engine and
network *throughput* is refereed by ``python3 -m bench``, see
``BENCHMARK.json``):

* allreduce algorithm ablation (ring vs recursive doubling) at the
  message size regimes of the ML workloads;
* adaptive-routing bias ablation under a permutation hotspot.
"""

import pytest

from benchmarks.conftest import report

from repro.mpi.engine import JobSpec, SimMPI
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric


def _permutation_traffic(ctx):
    """Every rank streams to a fixed far partner: a hotspot pattern."""
    partner = (ctx.rank + ctx.size // 2) % ctx.size
    for it in range(20):
        req = yield ctx.isend(partner, 65536, tag=it)
        yield ctx.wait(req)


def _run_permutation(routing: str, bias: float) -> float:
    fabric = NetworkFabric(
        Dragonfly1D.mini(),
        NetworkConfig(seed=1, adaptive_bias=bias),
        routing=routing,
    )
    mpi = SimMPI(fabric)
    nranks = 32
    # Two groups only: maximal pressure on one group-pair's global links.
    nodes = list(range(16)) + list(range(16, 32))
    mpi.add_job(JobSpec("perm", nranks, _permutation_traffic, nodes))
    mpi.run(until=1.0)
    res = mpi.results()[0]
    return res.max_comm_time()


@pytest.mark.parametrize("algorithm", ["ring", "rd"])
def test_benchmark_allreduce_algorithm(benchmark, algorithm):
    """Ablation: ring vs recursive doubling at ML message sizes."""

    def run():
        fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=3), routing="min")
        mpi = SimMPI(fabric)

        def prog(ctx):
            yield from ctx.allreduce(1 << 20, algorithm=algorithm)

        mpi.add_job(JobSpec("ar", 16, prog, list(range(16))))
        mpi.run(until=5.0)
        return mpi.results()[0].max_comm_time()

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    report(f"\nallreduce[{algorithm}] 1 MiB x 16 ranks: max comm time {t * 1e3:.3f} ms")
    assert t > 0


def test_benchmark_packet_size_ablation(benchmark):
    """Fidelity/cost knob of the packet-level substitution for CODES's
    flit-level model: smaller packets -> finer link interleaving and
    more events; the measured latency converges as packets shrink."""

    def run_with(packet_bytes):
        fabric = NetworkFabric(
            Dragonfly1D.mini(),
            NetworkConfig(seed=5, packet_bytes=packet_bytes),
            routing="adp",
        )
        mpi = SimMPI(fabric)

        def prog(ctx):
            for _ in range(2):
                yield ctx.compute(1e-5)
                yield from ctx.allreduce(1 << 18)

        mpi.add_job(JobSpec("a", 16, prog, list(range(16))))
        mpi.run(until=2.0)
        res = mpi.results()[0]
        assert res.finished
        return res.max_comm_time(), fabric.engine.events_processed

    def sweep():
        return {p: run_with(p) for p in (256, 1024, 4096, 16384)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("\nPacket-size ablation (256 KiB allreduce x 16 ranks):")
    for p, (t, ev) in results.items():
        report(f"  {p:6d} B packets: max comm time {t * 1e3:8.3f} ms, {ev:8d} events")
    # Event count scales with segmentation granularity.
    events = [ev for _, ev in results.values()]
    assert all(a > b for a, b in zip(events, events[1:]))
    # Latency estimates stay in one regime across the sweep (store-and-
    # forward cost shifts them, but not by orders of magnitude).
    times = [t for t, _ in results.values()]
    assert max(times) < 10 * min(times)


def test_benchmark_adaptive_bias_ablation(benchmark):
    """UGAL bias sweep under a two-group hotspot, plus MIN reference."""

    def sweep():
        out = {"min": _run_permutation("min", 1.0)}
        for bias in (0.0, 1.0, 4.0, 16.0):
            out[f"adp(bias={bias})"] = _run_permutation("adp", bias)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("\nAdaptive-bias ablation (hotspot permutation, max comm time):")
    for k, v in results.items():
        report(f"  {k:16s} {v * 1e3:8.3f} ms")
    # Adaptive with a moderate bias should beat minimal routing on a
    # hotspot (the Section VI 'adaptive avoids hot-spots' expectation).
    best_adp = min(v for k, v in results.items() if k.startswith("adp"))
    assert best_adp <= results["min"] * 1.05
