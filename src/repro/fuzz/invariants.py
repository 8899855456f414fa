"""The fuzz harness's property checks, as named invariants.

Each invariant is a function ``check(ctx) -> list[str]``: an empty list
means the property holds for the case's scenario; each string describes
one violation.  The roster lives in :data:`INVARIANTS` -- keyed by the
names ``union-sim fuzz`` reports and ``docs/faults.md`` documents --
so tests (and mutation drills) can monkeypatch a single entry without
touching the harness.

``conservation``
    Every payload byte injected into the fabric is attributed to
    exactly one job/injector, and every message injected is either
    delivered or still in flight at the horizon.  Skipped when the
    scenario configures ``[storage]``: burst-buffer I/O rides the same
    fabric but is deliberately not attributed to job gauges.
``no_stuck_jobs``
    A started, unfinished, non-endless job is legal only when the run
    was cut off by the horizon; if the event queue drained early with
    such a job outstanding, it is deadlocked.  Jobs that never started
    must carry a skip reason.
``determinism``
    Running the identical spec twice yields bit-identical result JSON.
``parity``
    Every row of :data:`PARITY_ENGINES` -- the conservative engine (2
    partitions), both ``accel-*`` engines and the default engine (no
    table) -- reproduces the result of the pure-Python reference
    (:data:`PARITY_REFERENCE`, pinned explicitly: the default is the
    compiled kernel) exactly, modulo the ``engine`` stanza
    (:mod:`repro.scenario.oracle`).  Checked on sampled cases only
    (each engine adds a full run); :attr:`FuzzContext.parity` gates it.
``stepping``
    Driving the session by hand -- ``step(horizon / 2)``,
    ``step(horizon)``, ``finalize()`` -- yields result JSON
    bit-identical to the one-shot run (the engines' stepping-parity
    contract, which :class:`repro.env.SimulationEnv` episodes rely on).
    Sampled with the parity cases (it re-runs the scenario once).
``monotone_clocks``
    All reported times are finite and non-negative, the run clock never
    exceeds the horizon, and per-job max latency dominates the average.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Any, Callable, Mapping

from repro.scenario import oracle, parse_scenario
from repro.scenario.runner import (
    ScenarioResult,
    build_manager,
    reduce_scenario_result,
    run_scenario,
)

#: Slack for float comparisons on reported clocks.
_EPS = 1e-9


class FuzzContext:
    """One fuzz case: a scenario mapping plus memoized runs.

    ``run()`` parses and executes the mapping once per distinct engine
    table and caches the result -- most invariants share the baseline
    run.  ``run_fresh()`` bypasses the cache for the determinism check.
    ``parity`` marks the case as sampled for the (expensive) engine
    parity invariant.
    """

    def __init__(self, mapping: Mapping[str, Any], parity: bool = False) -> None:
        self.mapping = dict(mapping)
        self.parity = parity
        self._cache: dict[str, ScenarioResult] = {}

    def run_fresh(self, engine: Mapping[str, Any] | None = None) -> ScenarioResult:
        data = copy.deepcopy(self.mapping)
        if engine is not None:
            data["engine"] = dict(engine)
        name = data.get("name", "fuzz-case")
        return run_scenario(parse_scenario(data, name=name))

    def run(self, engine: Mapping[str, Any] | None = None) -> ScenarioResult:
        key = json.dumps(engine, sort_keys=True) if engine else ""
        if key not in self._cache:
            self._cache[key] = self.run_fresh(engine)
        return self._cache[key]


def check_conservation(ctx: FuzzContext) -> list[str]:
    if "storage" in ctx.mapping:
        return []
    r = ctx.run()
    fabric = r.outcome.fabric
    out = []
    attributed = sum(j.bytes_sent for j in r.jobs)
    if fabric.bytes_sent != attributed:
        out.append(f"fabric injected {fabric.bytes_sent} payload bytes but "
                   f"jobs account for {attributed}")
    settled = fabric.messages_delivered + fabric.in_flight()
    if fabric.messages_sent != settled:
        out.append(f"{fabric.messages_sent} messages sent but only {settled} "
                   "delivered or in flight")
    return out


def check_no_stuck_jobs(ctx: FuzzContext) -> list[str]:
    r = ctx.run()
    out = []
    cut_off = r.end_time >= r.horizon - _EPS
    for j in r.jobs:
        if j.started and not j.finished and not j.endless and not cut_off:
            out.append(f"job {j.name!r} started but is stuck: the event "
                       f"queue drained at t={r.end_time!r} before the "
                       f"horizon {r.horizon!r}")
        if not j.started and not j.skip_reason:
            out.append(f"job {j.name!r} never started and reports no "
                       "skip reason")
    return out


def check_determinism(ctx: FuzzContext) -> list[str]:
    first = json.dumps(ctx.run().to_json_dict(), sort_keys=True)
    second = json.dumps(ctx.run_fresh().to_json_dict(), sort_keys=True)
    if first != second:
        return ["two runs of the identical spec produced different "
                "result JSON"]
    return []


#: The engine every ``parity`` row must reproduce.
PARITY_REFERENCE = {"type": "sequential"}

#: What ``parity`` runs every sampled case on, next to the sequential
#: reference (a ``None`` table: no ``[engine]`` table, the default
#: preset).  The accel engines: the compiled kernel wherever this host
#: can build one, else its recorded fallback (the plain Python engine),
#: windowed too since whole YAWNS windows commit inside the kernel.
PARITY_ENGINES: tuple[tuple[str, dict], ...] = (
    ("conservative(partitions=2)",
     {"type": "conservative", "partitions": 2}),
    ("accel-sequential", {"type": "accel-sequential"}),
    ("accel-conservative(partitions=2)",
     {"type": "accel-conservative", "partitions": 2}),
    ("the default engine", None),
)


def check_parity(ctx: FuzzContext) -> list[str]:
    if not ctx.parity:
        return []
    out = []
    _, reference = oracle.split(ctx.run(engine=PARITY_REFERENCE).to_json_dict())
    for label, table in PARITY_ENGINES:
        run = ctx.run(engine=table)
        _, result = oracle.split(run.to_json_dict())
        if result != reference:
            info = run.outcome.fabric.engine.describe()
            ran = f" (backend={info['backend']})" if "backend" in info else ""
            out.append(f"{label}{ran} run diverged from the sequential "
                       "result")
    return out


def check_stepping(ctx: FuzzContext) -> list[str]:
    if not ctx.parity:
        return []
    baseline = json.dumps(ctx.run().to_json_dict(), sort_keys=True)
    data = copy.deepcopy(ctx.mapping)
    spec = parse_scenario(data, name=data.get("name", "fuzz-case"))
    session = build_manager(spec).session().build()
    session.step(until=spec.horizon / 2)
    session.step(until=spec.horizon)
    stepped = reduce_scenario_result(spec, session.finalize())
    if json.dumps(stepped.to_json_dict(), sort_keys=True) != baseline:
        return ["stepping to mid-horizon and on produced result JSON "
                "different from the one-shot run"]
    return []


def check_monotone_clocks(ctx: FuzzContext) -> list[str]:
    r = ctx.run()
    out = []
    if not (0.0 <= r.end_time <= r.horizon + _EPS) or not math.isfinite(r.end_time):
        out.append(f"run clock {r.end_time!r} outside [0, horizon={r.horizon!r}]")
    for j in r.jobs:
        for label, value in (("avg_latency", j.avg_latency),
                             ("max_latency", j.max_latency),
                             ("max_comm_time", j.max_comm_time),
                             ("arrival", j.arrival)):
            if not math.isfinite(value) or value < 0.0:
                out.append(f"job {j.name!r} {label} is {value!r}")
        if j.max_latency < j.avg_latency - _EPS:
            out.append(f"job {j.name!r} max latency {j.max_latency!r} below "
                       f"its average {j.avg_latency!r}")
        if j.bytes_sent < 0 or j.messages < 0:
            out.append(f"job {j.name!r} reports negative traffic counters")
    return out


#: The named property roster ``union-sim fuzz`` checks, in report order.
INVARIANTS: dict[str, Callable[[FuzzContext], list[str]]] = {
    "conservation": check_conservation,
    "no_stuck_jobs": check_no_stuck_jobs,
    "determinism": check_determinism,
    "parity": check_parity,
    "stepping": check_stepping,
    "monotone_clocks": check_monotone_clocks,
}
