"""The benchmark's own models and seeded input generators.

Nothing here imports from ``tests/`` or ``benchmarks/``: a later edit to
``tests/pdes/phold.py`` must not silently change the instrument.  Input
generation draws from :class:`random.Random` (not ``repro.pdes.rng``),
so a change to the program's RNG cannot move the inputs either; the
PHOLD *model* draws from ``repro.pdes.rng.SplitMix`` because that module
is part of what the ``phold`` workload measures.

``--seed`` reaches every generator: the storm's partner permutation and
``NetworkConfig.seed``, the PHOLD streams, the scenario spec seeds and
the generated service specs.
"""

from __future__ import annotations

import heapq
import random

from repro.pdes.lp import LP
from repro.pdes.rng import SplitMix

#: Workload sizes.  ``full`` is what the benchmark measures; ``quick``
#: is the warm-up inside set-up and what ``bench/test_bench.py`` runs.
SIZES = {
    "full": {
        "phold_horizon": 3000.0,
        "storm_msgs": 24,
        "allreduce_iters": 200,
        "hybrid_horizon": 0.05,
        "startup_scale": "paper",
        "service_hits": 20,
        "micro_n": 200_000,
    },
    "quick": {
        "phold_horizon": 60.0,
        "storm_msgs": 1,
        "allreduce_iters": 8,
        "hybrid_horizon": 0.0015,
        "startup_scale": "mini",
        "service_hits": 3,
        "micro_n": 5_000,
    },
}

# -- PHOLD ------------------------------------------------------------------

PHOLD_LPS = 64
PHOLD_INITIAL = 4
PHOLD_MIN_DELAY = 0.5
PHOLD_MEAN_DELAY = 1.0


def _phold_stream(seed: int, lp_id: int, count: int) -> SplitMix:
    return SplitMix(seed * 1_000_003 + lp_id, count)


class PholdLP(LP):
    """One PHOLD logical process: count the ball, sum its timestamp,
    throw it to a random LP at a random future time."""

    __slots__ = ("seed", "count", "checksum")

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self.count = 0
        self.checksum = 0.0

    def handle(self, event) -> None:
        self.count += 1
        self.checksum += event.time
        rng = _phold_stream(self.seed, self.lp_id, self.count)
        dst = rng.randint(PHOLD_LPS)
        delay = PHOLD_MIN_DELAY + rng.random() * PHOLD_MEAN_DELAY
        self.engine.schedule(delay, dst, "ball", None)


def build_phold(engine, seed: int) -> list[PholdLP]:
    """Register the PHOLD LPs on ``engine`` and throw the first balls."""
    lps = [PholdLP(seed) for _ in range(PHOLD_LPS)]
    for lp in lps:
        engine.register(lp)
    for lp in lps:
        rng = _phold_stream(seed, lp.lp_id, 0)
        for k in range(PHOLD_INITIAL):
            delay = PHOLD_MIN_DELAY + rng.random() * PHOLD_MEAN_DELAY
            engine.schedule(delay, lp.lp_id, "ball", k)
    return lps


def phold_reference(seed: int, horizon: float) -> list[tuple[int, float]]:
    """The same PHOLD on a plain ``heapq`` loop that shares no code with
    ``repro.pdes`` engines -- the oracle the warm-up compares an engine
    run against.  Returns ``(count, checksum)`` per LP.

    Timestamps are continuous, so ``(time, insertion order)`` decides
    the order exactly as the engine's ``(time, priority, seq)`` does.
    """
    count = [0] * PHOLD_LPS
    checksum = [0.0] * PHOLD_LPS
    heap: list[tuple[float, int, int]] = []
    order = 0
    for lp in range(PHOLD_LPS):
        rng = _phold_stream(seed, lp, 0)
        for _ in range(PHOLD_INITIAL):
            heap.append((PHOLD_MIN_DELAY + rng.random() * PHOLD_MEAN_DELAY,
                         order, lp))
            order += 1
    heapq.heapify(heap)
    while heap and heap[0][0] <= horizon:
        now, _, lp = heapq.heappop(heap)
        count[lp] += 1
        checksum[lp] += now
        rng = _phold_stream(seed, lp, count[lp])
        dst = rng.randint(PHOLD_LPS)
        delay = PHOLD_MIN_DELAY + rng.random() * PHOLD_MEAN_DELAY
        heapq.heappush(heap, (now + delay, order, dst))
        order += 1
    return list(zip(count, checksum))


# -- fabric storm -------------------------------------------------------------

STORM_MSG_BYTES = 1 << 16
STORM_APPS = 4


def storm_partners(n_nodes: int, seed: int) -> list[int]:
    """A seed-shuffled cyclic permutation (Sattolo): every node sends to
    exactly one partner and receives from one, and none sends to itself,
    so every seed injects the same number of network packets."""
    rng = random.Random(seed)
    perm = list(range(n_nodes))
    for i in range(n_nodes - 1, 0, -1):
        j = rng.randrange(i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# -- SimMPI ---------------------------------------------------------------------

ALLREDUCE_RANKS = 64
ALLREDUCE_BYTES = 8
ALLREDUCE_COMPUTE_S = 1e-6


def allreduce_program(iters: int):
    """``iters`` x (compute + 8-byte allreduce): one packet per message,
    so rank progression, matching and the collective are what runs."""

    def program(ctx):
        for _ in range(iters):
            yield ctx.compute(ALLREDUCE_COMPUTE_S)
            yield from ctx.allreduce(ALLREDUCE_BYTES)

    return program


# -- scenario specs -----------------------------------------------------------------

#: The paper's Workload3 (Table III): two ML skeletons, three HPC apps.
HYBRID_APPS = ("cosmoflow", "alexnet", "nekbone", "milc", "nn")

STARTUP_APPS = ("nn", "milc")
STARTUP_NETWORKS = ("1d", "2d")
STARTUP_HORIZON = 2e-4


def hybrid_spec(seed: int, horizon: float) -> dict:
    """Workload3 under ``rg`` placement and ``adp`` routing on the mini
    1D dragonfly, as a plain spec mapping."""
    return {
        "name": f"hybrid-mix-{seed}",
        "seed": seed,
        "horizon": horizon,
        "routing": "adp",
        "placement": "rg",
        "topology": {"network": "1d", "scale": "mini"},
        "jobs": [{"app": app} for app in HYBRID_APPS],
    }


def startup_spec(seed: int, network: str, scale: str) -> dict:
    """Two jobs on a (paper-scale) dragonfly with a horizon so short
    that the fixed costs of a run are most of it."""
    return {
        "name": f"startup-{network}-{seed}",
        "seed": seed,
        "horizon": STARTUP_HORIZON,
        "routing": "adp",
        "placement": "rg",
        "topology": {"network": network, "scale": scale},
        "metrics": {"summary": True},
        "jobs": [{"app": app} for app in STARTUP_APPS],
    }


#: Generator table behind every ``service_submit`` spec: the ``diurnal``
#: generator's anchor ``nn`` job under 4 seed-placed burst injectors over a
#: short horizon.  Small enough that the service's own work (digest,
#: journal, checkpoint, telemetry capture, cache) is about half of an op,
#: and -- unlike ``random-mix``, whose seed also picks the application --
#: every seed costs about the same, so the op time is steady across seeds.
SERVICE_GENERATOR = {"type": "diurnal", "arrivals": 4, "period": 2e-4,
                     "horizon": 5e-4}
SERVICE_PREFILL = 4


def service_spec_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th generated spec of a run."""
    return seed * 100_003 + index
