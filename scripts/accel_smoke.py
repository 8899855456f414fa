#!/usr/bin/env python
"""CI smoke drill for the compiled accel event kernel.

Runs one hybrid storm scenario (apps plus background traffic on the
mini dragonfly) twice -- on the pure-Python ``sequential`` engine, then
on ``accel-sequential`` -- and asserts:

1. the accel run used the backend this host is expected to provide
   (``--expect compiled`` on a compiler host, ``--expect python`` on a
   compiler-less host; without the flag either backend passes, which
   would make a CI check vacuous -- always pass it in CI);
2. a python fallback recorded a user-facing ``backend_reason``;
3. the scenario result JSON is bit-identical modulo the ``engine`` key
   (the docs/engines.md determinism guarantee, end to end through the
   scenario layer);
4. on the compiled backend the fabric was *resident* in the kernel --
   for the plain storm and for the same storm with ``[[faults]]``
   (faults are adopted: bandwidth rescaling writes through and
   fault-aware rerouting goes through the policy seam) -- and on the
   python backend the run says ``fabric: "python"`` with a reason;
5. (compiled only) pull coherence: a 64-rank SimMPI allreduce on the
   default engine writes the kernel's state back into its Python
   mirrors at most 4 times per delivered message (``sync_ops``) --
   write-backs follow Python's reads, not the per-message seams;
6. (compiled only) resident ranks: that allreduce ran with
   ``ranks: "resident"`` and entered Python (``Kernel.py_entries``:
   generator resumes, rank starts and finishes, callbacks, generic
   handlers) less than once per delivered message, while a storage
   scenario keeps its ranks in Python and says why;
7. (compiled only) 20 back-to-back storms, each with that allreduce on
   resident ranks, leak nothing: the count of gc-tracked objects is flat
   and RSS grows by less than 1 MB after the second;
8. (compiled only) so do 8 stepped runs: a mini Workload3 session
   stepped in 400 windows and finalized.  Every step freezes the built
   model and moves what survives into the oldest generation on return
   (``repro.pdes.collector``); nothing may pile up there, also when
   nothing but the collector itself reclaims the finished runs.

``--build-sanitized`` instead rebuilds the kernel with UBSan (and
``--asan`` AddressSanitizer) and the kernel's debug assertions
(``-DUNION_ACCEL_DEBUG``: a port's arrival FIFO stays in ``(time,
seq)`` order) into ``UNION_ACCEL_CACHE`` under the key ``load_kernel``
looks up, so that a following ``pytest tests/accel`` with the same
cache runs against the instrumented build.

Exit 0 on success; any assertion is fatal.  Run directly:
``python scripts/accel_smoke.py --expect compiled``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SCENARIO = {
    "name": "accel-smoke-storm",
    "topology": {"network": "1d", "scale": "mini"},
    "seed": 11,
    "horizon": 0.004,
    "placement": "rn",
    "jobs": [
        {"app": "milc", "nranks": 16},
        {"app": "nn", "nranks": 8, "params": {"dims": [2, 2, 2]}},
    ],
    "traffic": [
        {"pattern": "uniform", "nranks": 16, "msg_bytes": 8192,
         "interval_s": 5e-5},
    ],
}


FAULTS = [
    {"name": "slow", "kind": "link-degrade", "start": 2e-4, "duration": 1e-3,
     "router": 0, "router_b": 1, "factor": 0.25},
    {"name": "cut", "kind": "link-down", "start": 4e-4, "duration": 2e-3,
     "router": 8, "router_b": 9},
]


#: Mirror writes per delivered message the allreduce drill may cost.
MAX_SYNC_OPS_PER_MESSAGE = 4
#: Calls into Python per delivered message the allreduce drill may cost.
MAX_PY_ENTRIES_PER_MESSAGE = 1

#: The paper's Workload3 (two ML skeletons, three HPC apps) on the mini
#: 1D dragonfly, for the stepped leak drill.
WORKLOAD3 = {
    "name": "accel-smoke-workload3",
    "topology": {"network": "1d", "scale": "mini"},
    "seed": 3,
    "horizon": 0.05,
    "routing": "adp",
    "placement": "rg",
    "jobs": [{"app": app} for app in
             ("cosmoflow", "alexnet", "nekbone", "milc", "nn")],
}
#: Windows the stepped leak drill advances each session in.
STEP_WINDOWS = 400

STORAGE = {
    "name": "accel-smoke-storage",
    "topology": {"network": "1d", "scale": "mini"},
    "seed": 5,
    "horizon": 0.001,
    "storage": {"servers": 2},
    "jobs": [{"app": "nn", "nranks": 8, "params": {"dims": [2, 2, 2]}}],
}


def allreduce_drill():
    """64 ranks x 20 (compute + 8-byte allreduce) on the mini dragonfly
    and the default engine: one packet per message, so every message
    crosses the kernel's seams.  Returns the fabric."""
    from repro.mpi.engine import JobSpec, SimMPI
    from repro.network.dragonfly import Dragonfly1D
    from repro.network.fabric import NetworkFabric

    def program(ctx):
        for _ in range(20):
            yield ctx.compute(1e-6)
            yield from ctx.allreduce(8)

    fabric = NetworkFabric(Dragonfly1D.mini())
    mpi = SimMPI(fabric)
    mpi.add_job(JobSpec("allreduce", 64, program, list(range(64))))
    mpi.run(until=1.0)
    assert mpi.results()[0].finished, "the allreduce drill did not finish"
    return fabric


def pull_drill() -> None:
    fabric = allreduce_drill()
    engine = fabric.engine
    assert engine.fabric == "resident", (
        f"the allreduce fabric was not adopted: {engine.fabric_reason!r}")
    per_message = engine._kernel.sync_ops / fabric.messages_delivered
    print(f"pull drill: {per_message:.2f} sync_ops per message over "
          f"{fabric.messages_delivered} messages")
    assert per_message <= MAX_SYNC_OPS_PER_MESSAGE, (
        f"{per_message:.2f} mirror writes per message (at most "
        f"{MAX_SYNC_OPS_PER_MESSAGE}): the seams are writing back again")


def ranks_drill(run) -> None:
    fabric = allreduce_drill()
    engine = fabric.engine
    assert engine.ranks == "resident", (
        f"the allreduce ranks were not adopted: {engine.ranks_reason!r}")
    per_message = engine._kernel.py_entries / fabric.messages_delivered
    print(f"ranks drill: {per_message:.2f} Python entries per message over "
          f"{fabric.messages_delivered} messages")
    assert per_message < MAX_PY_ENTRIES_PER_MESSAGE, (
        f"{per_message:.2f} calls into Python per message (fewer than "
        f"{MAX_PY_ENTRIES_PER_MESSAGE}): the ranks run in Python again")
    info, _ = run(STORAGE)
    assert info["ranks"] == "python" and info["ranks_reason"], (
        f"a storage scenario must keep its ranks in Python, with a reason: {info}")
    print(f"ranks drill: storage keeps ranks in Python ({info['ranks_reason']})")


def rss_kb() -> int:
    """Current resident set (not the peak) from /proc, in kB."""
    with open(f"/proc/{os.getpid()}/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() // 1024


def stepped_run() -> None:
    """One mini Workload3 session, stepped in STEP_WINDOWS windows and
    finalized."""
    from repro.scenario import build_manager, parse_scenario

    spec = parse_scenario(WORKLOAD3)
    session = build_manager(spec).session()
    session.build()
    for k in range(1, STEP_WINDOWS + 1):
        session.step(spec.horizon * k / STEP_WINDOWS)
    session.finalize()


def leak_drill(run, runs: int, what: str) -> None:
    """``runs`` back-to-back runs: flat gc object count, RSS growth
    < 1 MB after the second (the first two warm every cache)."""
    counts, rss = [], []
    for _ in range(runs):
        run()
        gc.collect()
        counts.append(len(gc.get_objects()))
        rss.append(rss_kb())
    assert max(counts[1:]) - min(counts[1:]) <= 10, (
        f"gc-tracked objects not flat across {what}: {counts}")
    growth = rss[-1] - rss[1]
    assert growth < 1024, f"RSS grew {growth} kB across {runs - 2} {what}: {rss}"
    print(f"leak drill OK ({runs} {what}): {counts[-1]} gc objects flat, "
          f"RSS +{growth} kB")


def pileup_drill(run, runs: int, what: str) -> None:
    """``runs`` back-to-back runs and no explicit collection: RSS grows
    by less than 1 MB after the second, so the collector itself reclaims
    each finished run's model even though every step froze it."""
    rss = []
    for _ in range(runs):
        run()
        rss.append(rss_kb())
    growth = rss[-1] - rss[1]
    assert growth < 1024, (
        f"RSS grew {growth} kB across {runs - 2} {what} left to the "
        f"collector: {rss}")
    print(f"pile-up drill OK ({runs} {what}): RSS +{growth} kB")


def build_sanitized(asan: bool) -> int:
    from repro.accel.build import build_into

    assert os.environ.get("UNION_ACCEL_CACHE"), (
        "point UNION_ACCEL_CACHE at a scratch directory first")
    flags = ["-fsanitize=undefined", "-fno-sanitize-recover=undefined", "-g",
             "-DUNION_ACCEL_DEBUG"]
    if asan:
        flags.insert(0, "-fsanitize=address")
    print(f"sanitized kernel at {build_into(tuple(flags))}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--expect", choices=("compiled", "python"), default=None,
        help="assert the accel run used this backend (keeps the check "
             "non-vacuous in CI)")
    parser.add_argument("--build-sanitized", action="store_true",
                        help="only build a UBSan kernel with debug assertions "
                             "into UNION_ACCEL_CACHE")
    parser.add_argument("--asan", action="store_true",
                        help="with --build-sanitized: AddressSanitizer too")
    args = parser.parse_args()
    if args.build_sanitized:
        return build_sanitized(args.asan)

    from repro.scenario import oracle, parse_scenario
    from repro.scenario.runner import run_scenario

    def run(engine, faults=None, scenario=SCENARIO):
        """``(engine stanza, canonical result JSON)`` of one run."""
        spec = dict(scenario, engine={"type": engine})
        if faults is not None:
            spec["faults"] = faults
        return oracle.split(run_scenario(parse_scenario(spec)).to_json_dict())

    _, seq = run("sequential")
    engine, accel = run("accel-sequential")
    backend = engine["backend"]
    reason = engine["backend_reason"]
    if args.expect is not None:
        assert backend == args.expect, (
            f"expected the {args.expect!r} backend but the run used "
            f"{backend!r} (backend_reason={reason!r})"
        )
    if backend == "python":
        assert reason, "python fallback must record a backend_reason"
        assert engine["fabric"] == "python" and engine["fabric_reason"], (
            f"python backend must report a python fabric with a reason: {engine}")
    else:
        assert reason is None, f"compiled backend recorded reason {reason!r}"
        assert engine["fabric"] == "resident", (
            f"the plain storm's fabric was not adopted: "
            f"{engine['fabric_reason']!r}")
        info, faulty = run("accel-sequential", FAULTS)
        assert info["fabric"] == "resident", (
            f"[[faults]] lost the resident fabric: {info['fabric_reason']!r}")
        assert faulty == run("sequential", FAULTS)[1], (
            "accel-sequential diverged from sequential under [[faults]]")

    if accel != seq:
        a = json.dumps(json.loads(seq), indent=2, sort_keys=True).splitlines()
        b = json.dumps(json.loads(accel), indent=2, sort_keys=True).splitlines()
        import difflib

        sys.stderr.write("\n".join(difflib.unified_diff(
            a, b, "sequential", "accel-sequential", lineterm="", n=3)))
        sys.stderr.write("\n")
        raise AssertionError(
            "accel-sequential scenario JSON diverged from sequential"
        )

    detail = f"fallback: {reason}" if backend == "python" else "no fallback"
    print(f"accel smoke OK: backend {backend} ({detail}), fabric "
          f"{engine['fabric']}, scenario JSON bit-identical to sequential")
    if backend == "compiled":
        pull_drill()
        ranks_drill(lambda scenario: run("accel-sequential", scenario=scenario))
        leak_drill(lambda: (run("accel-sequential"), allreduce_drill()),
                   20, "storms")
        leak_drill(stepped_run, 8, "stepped runs")
        pileup_drill(stepped_run, 8, "stepped runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
