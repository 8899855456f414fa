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
5. (compiled only) 20 back-to-back storms leak nothing: the count of
   gc-tracked objects is flat and RSS grows by less than 1 MB after the
   second.

``--build-sanitized`` instead rebuilds the kernel with UBSan (and
``--asan`` AddressSanitizer) into ``UNION_ACCEL_CACHE`` under the key
``load_kernel`` looks up, so that a following ``pytest tests/accel``
with the same cache runs against the instrumented build.

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


def rss_kb() -> int:
    """Current resident set (not the peak) from /proc, in kB."""
    with open(f"/proc/{os.getpid()}/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() // 1024


def leak_drill(run) -> None:
    """20 back-to-back storms: flat gc object count, RSS growth < 1 MB
    after the second (the first two warm every cache)."""
    counts, rss = [], []
    for _ in range(20):
        run()
        gc.collect()
        counts.append(len(gc.get_objects()))
        rss.append(rss_kb())
    assert max(counts[1:]) - min(counts[1:]) <= 10, (
        f"gc-tracked objects not flat across storms: {counts}")
    growth = rss[-1] - rss[1]
    assert growth < 1024, f"RSS grew {growth} kB across 18 storms: {rss}"
    print(f"leak drill OK: {counts[-1]} gc objects flat, RSS +{growth} kB")


def build_sanitized(asan: bool) -> int:
    from repro.accel.build import build_into

    assert os.environ.get("UNION_ACCEL_CACHE"), (
        "point UNION_ACCEL_CACHE at a scratch directory first")
    flags = ["-fsanitize=undefined", "-fno-sanitize-recover=undefined", "-g"]
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
                        help="only build a UBSan kernel into UNION_ACCEL_CACHE")
    parser.add_argument("--asan", action="store_true",
                        help="with --build-sanitized: AddressSanitizer too")
    args = parser.parse_args()
    if args.build_sanitized:
        return build_sanitized(args.asan)

    from repro.scenario import oracle, parse_scenario
    from repro.scenario.runner import run_scenario

    def run(engine=None, faults=None):
        """``(engine stanza, canonical result JSON)`` of one run."""
        spec = dict(SCENARIO)
        if engine is not None:
            spec["engine"] = {"type": engine}
        if faults is not None:
            spec["faults"] = faults
        return oracle.split(run_scenario(parse_scenario(spec)).to_json_dict())

    _, seq = run()
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
        assert faulty == run(faults=FAULTS)[1], (
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
        leak_drill(lambda: run("accel-sequential"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
