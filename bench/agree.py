"""Do two result sets of the same code agree within the benchmark's bounds?

A result set is what ``python3 -m bench run --all --runs N --json OUT``
writes.  For every pairing of end-to-end metric and workload the two
medians are compared against the metric's bound in ``BENCHMARK.json``:

``agree``
    neither median is worse than the other by more than the bound;
``differ``
    one is;
``unresolved``
    the spread of either set (distance between the quartiles of its
    runs, as a share of their median) is wider than the bound, so the
    comparison cannot be trusted either way.

Every exact per-layer metric (counts, bytes, digests, simulated
results) must be identical between the sets.  Exit status 1 when any
pairing differs or any exact metric moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench import runner


def compare(a: dict, b: dict, contract: dict, out=sys.stdout) -> int:
    """Print one line per pairing; return the number that differ."""
    differ = 0
    for name in (w["name"] for w in contract["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in contract["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            lo, hi = sorted((ma["median"], mb["median"]))
            # The worse median's distance from the other one, as a share
            # of the other one (which plays the parent).
            gap = (hi - lo) / (lo if m["better"] == "lower" else hi)
            spread = max(ma["spread"], mb["spread"])
            if spread > m["bound"]:
                verdict = "unresolved"
            elif gap > m["bound"]:
                verdict = "differ"
                differ += 1
            else:
                verdict = "agree"
            print(f"{verdict:<10} {m['name']:<14} {name:<20} "
                  f"{ma['median']:>14.6g} vs {mb['median']:>14.6g} {m['unit']}"
                  f"  gap {gap:.1%} spread {spread:.1%} bound {m['bound']:.0%}",
                  file=out)
        for m in contract["per_layer"]:
            if not runner.is_exact(m["name"], m["unit"]):
                continue
            va = wa["per_layer"][m["name"]]["value"]
            vb = wb["per_layer"][m["name"]]["value"]
            if va != vb:
                differ += 1
                print(f"differ     {m['name']:<14} {name:<20} exact metric "
                      f"moved: {va!r} vs {vb!r}", file=out)
        failed = wa["failed"] + wb["failed"]
        if failed:
            differ += 1
            print(f"differ     failed ops     {name:<20} {failed}", file=out)
    return differ


def main(sets: list[Path], run_twice: bool, runs: int) -> int:
    contract = runner.load_contract()
    if run_twice:
        if sets:
            raise runner.BenchError("--run-twice takes no result sets")
        loaded = []
        for label in "ab":
            result = runner.run_all(runner.DEFAULT_SEED,
                                    contract["run_seconds"], runs, "full")
            path = runner.OUT_DIR / f"set-{label}.json"
            path.write_text(json.dumps(result) + "\n")
            loaded.append(result)
    elif len(sets) == 2:
        loaded = [json.loads(p.read_text()) for p in sets]
    else:
        raise runner.BenchError("agree needs two result sets, or --run-twice")
    differ = compare(loaded[0], loaded[1], contract)
    print(f"{differ} pairing(s) differ")
    return 1 if differ else 0
