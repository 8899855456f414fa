"""``python3 -m bench run|agree ...`` -- see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import agree, runner


def main(argv: list[str] | None = None) -> int:
    contract = runner.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload, or all of them")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true",
                       help="every workload, each run in a fresh interpreter")
    run.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=contract["run_seconds"],
                     help="how long an untraced run measures")
    run.add_argument("--reps", type=int,
                     help="measure exactly this many ops instead")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="1: the traced, per-layer run")
    run.add_argument("--runs", type=int, default=1,
                     help="--all: untraced runs per workload, on seeds "
                          "SEED, SEED+1, ...")
    run.add_argument("--quick", action="store_true",
                     help="test sizes (seconds, not a measurement)")
    run.add_argument("--pin", action="store_true",
                     help="record this traced default-seed run's exact "
                          "values in bench/expected.json")
    run.add_argument("--json", type=Path, metavar="OUT",
                     help="also write the result (set) to this file")

    cmp_ = sub.add_parser("agree", help="compare two --all result sets")
    cmp_.add_argument("sets", nargs="*", type=Path, metavar="SET.json")
    cmp_.add_argument("--run-twice", action="store_true",
                      help="make the two sets now (run --all twice)")
    cmp_.add_argument("--runs", type=int, default=10)

    args = ap.parse_args(argv)
    size = "quick" if getattr(args, "quick", False) else "full"
    try:
        if args.command == "agree":
            return agree.main(args.sets, args.run_twice, args.runs)
        if args.all:
            result = runner.run_all(args.seed, args.seconds, args.runs, size)
        else:
            result = runner.run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                size=size, reps=args.reps, pin=args.pin)
    except runner.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(result)
    if args.json:
        args.json.write_text(text + "\n")
    # The result is the last line of standard output.
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
