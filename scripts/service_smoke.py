#!/usr/bin/env python
"""End-to-end durability drill for the simulation service (CI smoke).

Boots a real :class:`~repro.service.server.SimulationServer` (spawned
worker pool) with the HTTP transport in front, then drives the whole stack through a
:class:`~repro.service.client.ServiceClient` -- the same path
``union-sim submit`` rides:

1. submit a tiny scenario and wait: a cold run on the pool;
2. resubmit the identical spec: must answer instantly from the
   content-addressed result cache (``cached = true``, zero attempts);
3. submit a long scenario, wait until a worker is running it, then
   SIGKILL that worker mid-run: the monitor must respawn the slot and
   requeue the job, which re-runs from its journaled spec;
4. assert the re-run result document equals an uncached in-process
   ``run_scenario`` baseline **bit for bit** -- the durability claim
   of docs/service.md.

Prints one ``PASS`` line per stage and a final summary; any violated
stage exits non-zero.  Stdlib + the repo only.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

TINY = {
    "name": "smoke-tiny",
    "seed": 17,
    "horizon": 0.005,
    "placement": "rn",
    "topology": {"network": "1d"},
    "jobs": [{"app": "nn", "params": {"iters": 2}}],
}

#: Endless uniform traffic over a long horizon: slow enough (over 1 s
#: wall) that a kill lands mid-run.
LONG = {
    "name": "smoke-long",
    "seed": 5,
    "horizon": 1.5,
    "jobs": [{"app": "ur", "name": "ur0"}],
}


def wait_for(predicate, timeout: float = 60.0, poll: float = 0.05,
             what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise SystemExit(f"FAIL: {what} not reached within {timeout:g}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state", default=None,
                        help="service state directory, kept afterwards "
                             "(default: a temporary directory, removed)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker pool size (default: 2)")
    args = parser.parse_args(argv)
    with (contextlib.nullcontext(args.state) if args.state
          else tempfile.TemporaryDirectory(prefix="service-smoke-")) as state:
        return drill(Path(state), args.workers)


def drill(state: Path, workers: int) -> int:
    from repro.scenario import parse_scenario
    from repro.scenario.runner import run_scenario
    from repro.service import SimulationServer
    from repro.service.client import ServiceClient
    from repro.service.http import ServiceHTTPServer

    # The uncached baseline for stage 4, computed before the service
    # ever sees the spec.
    baseline = run_scenario(
        parse_scenario(dict(LONG), name=LONG["name"])).to_json_dict()

    with SimulationServer(state, workers=workers) as server:
        http = ServiceHTTPServer(server).start()
        try:
            client = ServiceClient(http.url)

            t0 = time.monotonic()
            cold = client.wait(client.submit(TINY)["job_id"], timeout=120.0)
            assert cold["state"] == "done" and not cold["cached"], cold
            print(f"PASS cold submit: {cold['job_id']} done "
                  f"(attempts={cold['attempts']}, "
                  f"{time.monotonic() - t0:.2f}s)")

            hit = client.submit(TINY)
            assert hit["state"] == "done" and hit["cached"], hit
            assert hit["attempts"] == 0, hit
            print(f"PASS cache hit: {hit['job_id']} answered from the "
                  "cache without touching a worker")

            job_id = client.submit(LONG)["job_id"]
            pid = wait_for(lambda: client.status(job_id).get("pid"),
                           what="long job running on a worker")
            os.kill(pid, signal.SIGKILL)
            done = client.wait(job_id, timeout=180.0)
            assert done["state"] == "done", done
            assert done["attempts"] == 2, done
            assert "re-running from its spec" in (done["error"] or ""), done
            print(f"PASS kill/requeue: worker {pid} SIGKILLed mid-run; "
                  f"{job_id} re-ran and finished "
                  f"(attempts={done['attempts']})")

            rerun = client.result(job_id)
            assert rerun == baseline, \
                "FAIL: re-run result differs from the uncached baseline"
            print("PASS bit-identical: re-run result == uncached "
                  "in-process baseline")

            stats = client.stats()
            print(f"service smoke OK: {stats['jobs']['done']} jobs done, "
                  f"cache {stats['cache']['hits']} hits / "
                  f"{stats['cache']['misses']} misses, "
                  f"workers {stats['workers']['alive']}/"
                  f"{stats['workers']['configured']} alive")
        finally:
            http.stop()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
