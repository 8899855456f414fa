#!/usr/bin/env python
"""CI smoke drill for multi-process partitioned execution.

Runs one all-static storm scenario (4 partitions' worth of cross-group
traffic on the mini dragonfly) twice -- sequential, then on the
``mp-conservative`` engine's spawn backend, with one real worker
process per partition -- and asserts:

1. the mp run actually distributed (``engine.mode == "distributed"``;
   a silent fallback would make the comparison vacuous);
2. the scenario result JSON is bit-identical modulo the ``engine`` key
   (the docs/engines.md determinism guarantee, end to end through the
   scenario layer).

Exit 0 on success; any assertion or worker failure is fatal.  Run
directly: ``python scripts/mp_smoke.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SCENARIO = {
    "name": "mp-smoke-storm",
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


def main() -> int:
    from repro.scenario import oracle, parse_scenario
    from repro.scenario.runner import run_scenario

    _, seq = oracle.split(run_scenario(parse_scenario(
        dict(SCENARIO, engine={"type": "sequential"}))).to_json_dict())

    mp_spec = dict(SCENARIO)
    mp_spec["engine"] = {"type": "mp-conservative", "partitions": 4,
                         "backend": "mp"}
    engine, mp = oracle.split(
        run_scenario(parse_scenario(mp_spec)).to_json_dict())
    assert engine["mode"] == "distributed", (
        f"mp run fell back to single-process: {engine['fallback']!r}"
    )
    assert engine["fallback"] is None
    assert engine["partitions"] == 4
    assert engine["windows"] > 1

    if mp != seq:
        a = json.dumps(json.loads(seq), indent=2, sort_keys=True).splitlines()
        b = json.dumps(json.loads(mp), indent=2, sort_keys=True).splitlines()
        import difflib

        sys.stderr.write("\n".join(difflib.unified_diff(
            a, b, "sequential", "mp-conservative", lineterm="", n=3)))
        sys.stderr.write("\n")
        raise AssertionError(
            "mp-conservative scenario JSON diverged from sequential"
        )

    print(f"mp smoke OK: 4 spawned workers, {engine['windows']} windows, "
          f"scenario JSON bit-identical to sequential "
          f"(lookahead {engine['lookahead']:g}s, scheme {engine['scheme']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
