"""The eight workloads.

One *operation* (op) is one complete simulation, from generated inputs
to a checked result.  A workload is built from ``(seed, size)`` and
offers:

``prepare()``
    what a user pays once before the first op: generate the inputs from
    the seed, fill caches cold, and run one warm-up op at ``quick`` size
    whose result is compared against an independent reference (a plain
    ``heapq`` PHOLD, the sequential engine for the other engines).
    The runner times it as part of ``setup_s``.
``op(tracer)``
    one op, with a span around every call into a layer.  Returns an
    :class:`OpResult`; raises :class:`CheckFailed` when an output is
    wrong, which the runner counts as a failed op.
``probes(tracer)``
    traced runs only: measurements beside the ops (micro-loops, the
    same inputs on another engine, direct calls into one layer) as
    ready per-layer metrics.

Why each workload exists is recorded in ``BENCHMARK.json`` and at
length in ``bench/README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.accel import AccelUnavailable, accel_sequential_engine, load_kernel
from repro.generate import generate_mapping
from repro.harness.configs import make_topology
from repro.mpi.engine import JobSpec, SimMPI
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.parallel import conservative_engine
from repro.pdes import eventheap
from repro.pdes.event import Event
from repro.pdes.sequential import SequentialEngine
from repro.scenario import (
    build_manager,
    parse_scenario,
    reduce_scenario_result,
    run_scenario,
    to_toml,
)
from repro.service.api import SubmitAPI
from repro.service.cache import ResultCache, spec_digest
from repro.service.jobs import JobState, JobStore
from repro.telemetry import MemorySink, Telemetry

from bench import CheckFailed, models
from bench.trace import OP_SPAN, NullTracer

_UNTRACED = NullTracer()


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def digest_of(obj) -> str:
    """SHA-256 of ``obj``'s canonical JSON form."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    """What one op hands back: committed events, the digest of its
    result, and exact counters (``{per-layer metric: value}``)."""

    events: int
    digest: str
    counts: dict[str, float] = field(default_factory=dict)


def timed(fn):
    """``(CPU seconds, result)`` of one call, garbage collected
    beforehand like every op."""
    gc.collect()
    start = time.process_time()
    result = fn()
    return time.process_time() - start, result


class Workload:
    """Base: holds the seed, the size table and a private scratch dir."""

    name = ""
    #: Ops of a traced run (fixed, so that counts repeat exactly).
    trace_ops = 2
    #: Every op of a run works on the same inputs and must therefore
    #: return the digest of the first.
    same_digest_every_op = True
    #: What the fresh interpreter of a set-up repetition executes.
    cold_start = "import bench.workloads"

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        self.seed = seed
        self.size = models.SIZES[size]
        self.quick = models.SIZES["quick"]
        self.scratch = scratch

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, tr) -> OpResult:
        raise NotImplementedError

    def probes(self, tr) -> dict[str, float]:
        return {}


# -- 1. phold ---------------------------------------------------------------------


class Phold(Workload):
    name = "phold"

    def _run(self, tr, horizon: float):
        with tr.span("pdes.build"):
            engine = SequentialEngine()
            lps = models.build_phold(engine, self.seed)
        with tr.span("pdes.run"):
            end = engine.run(until=horizon)
        state = [(lp.count, lp.checksum) for lp in lps]
        check(end == horizon, f"phold stopped at t={end}, not the horizon")
        check(sum(c for c, _ in state) == engine.events_processed,
              "per-LP counts do not add up to the committed events")
        return engine.events_processed, state

    def prepare(self) -> None:
        horizon = self.quick["phold_horizon"]
        _, state = self._run(_UNTRACED, horizon)
        check(state == models.phold_reference(self.seed, horizon),
              "engine PHOLD differs from the heapq reference")

    def op(self, tr) -> OpResult:
        horizon = self.size["phold_horizon"]
        events, state = self._run(tr, horizon)
        return OpResult(events, digest_of([events, horizon, state]))

    def probes(self, tr) -> dict[str, float]:
        n = self.size["micro_n"]
        rng = random.Random(self.seed)
        events = [Event(rng.random() * 1e3, 0, "x", None, 0, -1, 0.0)
                  for _ in range(n)]
        for seq, ev in enumerate(events):
            ev.seq = seq
        # Heap: push everything, pop everything -- n push+pop pairs at
        # the depth a 64-LP PHOLD never reaches, so log n dominates.
        queue: list = []
        push, pop = eventheap.push, eventheap.pop_event
        with tr.span("pdes.heap_micro"):
            start = time.perf_counter_ns()
            for ev in events:
                push(queue, ev)
            for _ in range(n):
                pop(queue)
            heap_ns = (time.perf_counter_ns() - start) / n
        engine = SequentialEngine()
        models.build_phold(engine, self.seed)
        schedule = engine.schedule
        with tr.span("pdes.schedule_micro"):
            start = time.perf_counter_ns()
            for i in range(n):
                schedule(1.0 + i, 0, "x", None)
            schedule_ns = (time.perf_counter_ns() - start) / n
        # A step that commits nothing: pure re-entry into the run loop.
        idle = SequentialEngine()
        models.build_phold(idle, self.seed)
        steps = max(n // 100, 100)
        width = models.PHOLD_MIN_DELAY / (steps + 1)
        with tr.span("pdes.step_micro"):
            start = time.perf_counter_ns()
            for i in range(1, steps + 1):
                idle.step(i * width)
            step_us = (time.perf_counter_ns() - start) / steps * 1e-3
        check(idle.events_processed == 0, "idle steps committed events")
        return {"pdes.heap_push_pop_ns": heap_ns,
                "pdes.schedule_ns": schedule_ns,
                "pdes.step_reentry_us": step_us}


# -- 2-4. fabric storm on three engines -----------------------------------------


class FabricStorm(Workload):
    """Every node of the mini 1D dragonfly injects ``storm_msgs``
    64 KiB messages at t=0 to its permutation partner; run until
    drained.  No MPI layer."""

    name = "fabric_storm"

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        super().__init__(seed, size, scratch)
        self.partners = models.storm_partners(
            Dragonfly1D.mini().n_nodes, seed)

    def make_engine(self, tr, topo, cfg):
        return SequentialEngine()

    def check_engine(self, engine) -> dict[str, float]:
        return {}

    def storm(self, tr, msgs: int, reference=False, telemetry=None):
        """One storm on this workload's engine, or (``reference``) the
        identical inputs on a plain sequential engine."""
        with tr.span("network.topology_build"):
            topo = Dragonfly1D.mini()
        cfg = NetworkConfig(seed=self.seed)
        engine = (SequentialEngine() if reference
                  else self.make_engine(tr, topo, cfg))
        with tr.span("network.fabric_build"):
            fabric = NetworkFabric(topo, cfg, routing="adp", engine=engine,
                                   telemetry=telemetry)
        send = fabric.send_message
        with tr.span("network.inject"):
            for node, partner in enumerate(self.partners):
                app = node % models.STORM_APPS
                for _ in range(msgs):
                    send(app, node, partner, models.STORM_MSG_BYTES)
        with tr.span("network.run"):
            end = engine.run(until=1.0)
        sent = topo.n_nodes * msgs
        check(fabric.in_flight() == 0, "storm ended with messages in flight")
        check(fabric.messages_sent == sent == fabric.messages_delivered,
              f"sent {fabric.messages_sent} / delivered "
              f"{fabric.messages_delivered} of {sent} messages")
        check(fabric.bytes_sent == sent * models.STORM_MSG_BYTES,
              "byte total differs from what was injected")
        counts = {
            "network.messages": sent,
            "network.bytes": fabric.bytes_sent,
            "network.events_per_message": engine.events_processed / sent,
        }
        if not reference:
            counts.update(self.check_engine(engine))
        events = engine.events_processed
        digest = digest_of([
            events, end, fabric.messages_delivered, fabric.bytes_sent,
            sorted(fabric.total_packets.items()),
            sorted(fabric.nonmin_packets.items()),
            fabric.link_loads.bytes_per_link.tolist(),
        ])
        return OpResult(events, digest, counts)

    def prepare(self) -> None:
        msgs = self.quick["storm_msgs"]
        mine = self.storm(_UNTRACED, msgs)
        reference = self.storm(_UNTRACED, msgs, reference=True)
        check(mine.digest == reference.digest,
              f"{self.name} differs from the sequential engine")

    def op(self, tr) -> OpResult:
        return self.storm(tr, self.size["storm_msgs"])

    def cpu_vs_sequential(self) -> tuple[float, float]:
        """CPU seconds of one op on this workload's engine and of the
        identical storm on the sequential engine; the digests must be
        equal."""
        msgs = self.size["storm_msgs"]
        own_s, own = timed(lambda: self.storm(_UNTRACED, msgs))
        base_s, base = timed(
            lambda: self.storm(_UNTRACED, msgs, reference=True))
        check(own.digest == base.digest,
              f"{self.name} differs from the sequential engine at full size")
        return own_s, base_s

    def probes(self, tr) -> dict[str, float]:
        msgs = self.size["storm_msgs"]
        default_s, _ = timed(lambda: self.storm(_UNTRACED, msgs))
        quiet_s, _ = timed(lambda: self.storm(
            _UNTRACED, msgs, telemetry=Telemetry(disable=("net.*",))))
        return {"network.telemetry_off_ratio": quiet_s / default_s}


class FabricStormYawns(FabricStorm):
    name = "fabric_storm_yawns"

    def make_engine(self, tr, topo, cfg):
        with tr.span("parallel.plan"):
            return conservative_engine(topo, cfg, partitions=3)

    def check_engine(self, engine) -> dict[str, float]:
        windows = engine.windows_executed
        check(windows > 0, "the conservative engine executed no window")
        return {"parallel.windows": windows,
                "parallel.events_per_window": engine.events_processed / windows}

    def probes(self, tr) -> dict[str, float]:
        own_s, base_s = self.cpu_vs_sequential()
        return {"parallel.yawns_overhead": own_s / base_s}


class FabricStormAccel(FabricStorm):
    name = "fabric_storm_accel"
    #: The fresh interpreter compiles the kernel into an empty cache
    #: (the runner points ``UNION_ACCEL_CACHE`` at one) and reports how
    #: long that took.
    cold_start = (
        "import time, bench.workloads as w\n"
        "t = time.perf_counter()\n"
        "try:\n"
        "    w.load_kernel()\n"
        "except w.AccelUnavailable:\n"
        "    pass\n"
        "else:\n"
        "    print('accel.build_cold_s', time.perf_counter() - t)\n"
    )

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        super().__init__(seed, size, scratch)
        self.load_cached_s = 0.0

    def make_engine(self, tr, topo, cfg):
        with tr.span("accel.engine"):
            return accel_sequential_engine()

    def check_engine(self, engine) -> dict[str, float]:
        # A host without a C compiler reports failed ops; it never times
        # the Python fallback under this workload's name.
        check(engine.backend == "compiled",
              f"accel backend is {engine.backend!r}: {engine.backend_reason}")
        return {"accel.compiled": 1}

    def prepare(self) -> None:
        # The cache was filled by this repetition's fresh interpreter;
        # the first call in this process loads the artifact, later ones
        # hit the in-process memo.
        start = time.perf_counter()
        try:
            load_kernel()
        except AccelUnavailable:
            pass  # the warm-up below fails its backend check
        if not self.load_cached_s:
            self.load_cached_s = time.perf_counter() - start
        super().prepare()

    def probes(self, tr) -> dict[str, float]:
        own_s, base_s = self.cpu_vs_sequential()
        return {"accel.storm_speedup": base_s / own_s,
                "accel.load_cached_s": self.load_cached_s}


# -- 5. mpi_small_allreduce --------------------------------------------------------


class MpiSmallAllreduce(Workload):
    name = "mpi_small_allreduce"

    def _run(self, tr, iters: int) -> OpResult:
        with tr.span("network.topology_build"):
            topo = Dragonfly1D.mini()
        cfg = NetworkConfig(seed=self.seed)
        with tr.span("network.fabric_build"):
            fabric = NetworkFabric(topo, cfg, routing="adp")
        with tr.span("mpi.build"):
            mpi = SimMPI(fabric)
        ranks = models.ALLREDUCE_RANKS
        spec = JobSpec("allreduce", ranks, models.allreduce_program(iters),
                       list(range(ranks)))
        with tr.span("mpi.add_job"):
            mpi.add_job(spec)
        with tr.span("mpi.start"):
            mpi.start()
        with tr.span("mpi.run"):
            end = mpi.run(until=10.0)
        result = mpi.results()[0]
        stats = result.rank_stats
        recvd = sum(s.msgs_recvd for s in stats)
        check(result.finished, "the allreduce job did not finish")
        check(fabric.in_flight() == 0, "messages still in flight at the end")
        check(recvd == sum(s.msgs_sent for s in stats) > 0,
              "messages received differ from messages sent")
        events = fabric.engine.events_processed
        digest = digest_of([events, end, recvd, result.total_bytes_sent(),
                            result.avg_latency(), result.max_comm_time()])
        return OpResult(events, digest, {
            "mpi.msgs_recvd": recvd,
            "mpi.events_per_msg": events / recvd,
            "network.messages": fabric.messages_sent,
            "network.bytes": fabric.bytes_sent,
        })

    def prepare(self) -> None:
        self._run(_UNTRACED, self.quick["allreduce_iters"])

    def op(self, tr) -> OpResult:
        return self._run(tr, self.size["allreduce_iters"])


# -- 6-7. the scenario pipeline ---------------------------------------------------


def scenario_pipeline(tr, mapping: dict):
    """Spec mapping -> JSON text, the way ``union-sim scenario`` goes,
    one span per call.  Returns ``(result, json_text, counts)``."""
    with tr.span("scenario.parse"):
        spec = parse_scenario(mapping)
    with tr.span("scenario.build_manager"):
        manager = build_manager(spec)
    session = manager.session()
    with tr.span("union.build"):
        session.build()
    with tr.span("union.step"):
        session.step(spec.horizon)
    with tr.span("union.observe"):
        seen = session.observe()
    with tr.span("union.finalize"):
        outcome = session.finalize()
    with tr.span("scenario.reduce"):
        result = reduce_scenario_result(spec, outcome)
    with tr.span("scenario.emit_json"):
        text = json.dumps(result.to_json_dict(), sort_keys=True)
    with tr.span("scenario.to_toml"):
        toml = to_toml(spec)
    with tr.span("telemetry.export"):
        sink = result.telemetry.export(MemorySink())
    check(seen.events == result.events,
          "observation and result disagree on committed events")
    check(parse_scenario(tomllib.loads(toml)).to_dict() == spec.to_dict(),
          "the emitted TOML does not parse back to the same spec")
    counts = {
        "union.jobs_launched": seen.jobs_started,
        "telemetry.rows": len(sink.rows),
        "mpi.msgs_recvd": sum(j.messages for j in result.jobs),
    }
    return result, text, counts


def simulated(result) -> dict[str, float]:
    """The paper's two simulated metrics, per job: exact, and never to
    move in a change that only claims speed."""
    out = {}
    for job in result.jobs:
        out[f"mpi.sim_avg_msg_latency_us.{job.name}"] = job.avg_latency * 1e6
        out[f"mpi.sim_max_comm_time_ms.{job.name}"] = job.max_comm_time * 1e3
    return out


def scenario_digest(text: str) -> str:
    """Digest of a result document minus its ``engine`` key."""
    doc = json.loads(text)
    doc.pop("engine", None)
    return digest_of(doc)


class HybridMix(Workload):
    name = "hybrid_mix"

    def _run(self, tr, horizon: float, must_finish: bool) -> OpResult:
        result, text, counts = scenario_pipeline(
            tr, models.hybrid_spec(self.seed, horizon))
        check(len(result.jobs) == len(models.HYBRID_APPS)
              and all(j.started for j in result.jobs),
              "not all five jobs started")
        if must_finish:
            check(all(j.finished for j in result.jobs),
                  "not all five jobs finished")
        counts.update(simulated(result))
        return OpResult(result.events, scenario_digest(text), counts)

    def prepare(self) -> None:
        self._run(_UNTRACED, self.quick["hybrid_horizon"], must_finish=False)

    def op(self, tr) -> OpResult:
        # Only the full horizon is long enough for every job to finish.
        return self._run(tr, self.size["hybrid_horizon"],
                         must_finish=self.size is not self.quick)


class PaperStartup(Workload):
    """One op is the pair: the 1D system, then the 2D system."""

    name = "paper_startup"
    trace_ops = 4

    def _run(self, tr, scale: str) -> OpResult:
        events = 0
        digests = []
        counts: dict[str, float] = {}
        for network in models.STARTUP_NETWORKS:
            result, text, one = scenario_pipeline(
                tr, models.startup_spec(self.seed, network, scale))
            check(all(j.started for j in result.jobs), "a job did not start")
            check(result.metrics, "the telemetry summary is missing")
            events += result.events
            digests.append(scenario_digest(text))
            for key, value in one.items():
                counts[key] = counts.get(key, 0) + value
        counts.update(simulated(result))  # the 2D system's, the last run
        return OpResult(events, digest_of(digests), counts)

    def prepare(self) -> None:
        self._run(_UNTRACED, self.quick["startup_scale"])

    def op(self, tr) -> OpResult:
        return self._run(tr, self.size["startup_scale"])

    def probes(self, tr) -> dict[str, float]:
        # The scenario path builds topology and fabric inside
        # build_manager/session.build; time the two constructors alone.
        scale = self.size["startup_scale"]
        start = time.perf_counter()
        with tr.span("network.topology_build"):
            topo = make_topology("1d", scale)
        built = time.perf_counter()
        with tr.span("network.fabric_build"):
            NetworkFabric(topo, NetworkConfig(seed=self.seed), routing="adp")
        return {"network.topology_build_s": built - start,
                "network.fabric_build_s": time.perf_counter() - built}


# -- 8. service_submit -----------------------------------------------------------------


class ServiceSubmit(Workload):
    """One op is a study re-run: one new generated spec submitted cold,
    then ``service_hits`` re-submissions of specs the cache already
    holds, each followed by ``result(job_id)``."""

    name = "service_submit"
    trace_ops = 8
    same_digest_every_op = False

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        super().__init__(seed, size, scratch)
        self.prepared = 0
        self.api: SubmitAPI | None = None
        self.pool: list[tuple[dict, dict]] = []
        self.next_spec = 0

    def _generate(self) -> dict:
        index = self.next_spec
        self.next_spec += 1
        return generate_mapping(models.SERVICE_GENERATOR,
                                models.service_spec_seed(self.seed, index))

    def _cold(self, tr, mapping: dict) -> dict:
        with tr.span("service.cold_submit"):
            record = self.api.submit(mapping)
        check(record.state is JobState.DONE and not record.cached,
              f"cold submit ended {record.state.value}, cached={record.cached}"
              + (f": {record.error}" if record.error else ""))
        with tr.span("service.result"):
            return self.api.result(record.job_id)

    def prepare(self) -> None:
        self.prepared += 1
        self.api = SubmitAPI(self.scratch / f"service-{self.prepared}")
        self.next_spec = 0
        self.pool = []
        for _ in range(models.SERVICE_PREFILL):
            mapping = self._generate()
            self.pool.append((mapping, self._cold(_UNTRACED, mapping)))
        self._study(_UNTRACED, self.quick["service_hits"])

    def _study(self, tr, hits: int) -> OpResult:
        with tr.span("generate.spec"):
            mapping = self._generate()
        cold = self._cold(tr, mapping)
        api = self.api
        for k in range(hits):
            again, expected = self.pool[k % len(self.pool)]
            with tr.span("service.hit"):
                record = api.submit(again)
                doc = api.result(record.job_id)
            check(record.cached is True, "a re-submission missed the cache")
            check(doc == expected, "a cache hit returned another document")
        return OpResult(cold["events"], digest_of(cold), {
            "mpi.msgs_recvd": sum(j["messages"] for j in cold["jobs"]),
            "service.hits": api.cache.hits,
            "service.misses": api.cache.misses,
        })

    def op(self, tr) -> OpResult:
        return self._study(tr, self.size["service_hits"])

    def probes(self, tr) -> dict[str, float]:
        clock = time.perf_counter
        # Cold submit against the same spec run without the service
        # around it: the difference is the service's own work (digest,
        # journal, checkpoint, telemetry capture, cache put).
        overheads = []
        for _ in range(models.SERVICE_PREFILL):
            mapping = self._generate()
            t0 = clock()
            self._cold(_UNTRACED, mapping)
            t1 = clock()
            run_scenario(parse_scenario(mapping))
            overheads.append((t1 - t0) - (clock() - t1))
        overhead = statistics.median(overheads)
        # Of a traced op, the service itself is that overhead, the
        # result fetch and every hit (a hit runs no simulation).
        shares = [
            (overhead + tr.total_s("service.result", op)
             + tr.total_s("service.hit", op)) / tr.total_s(OP_SPAN, op)
            for op in tr.ops()]
        out = {"service.cold_overhead_s": overhead,
               "service.self_share": statistics.median(shares)}

        # Direct calls into the service's parts, 50 each, medians.
        mapping, doc = self.pool[0]
        spec = parse_scenario(mapping)
        digest = spec_digest(spec)
        entry = self.api.cache.get(digest)
        header, rows = entry.telemetry()
        toml = entry.spec_toml()
        cache = ResultCache(self.scratch / "probe-cache")
        store = JobStore(self.scratch / "probe-journal")
        record = store.new_job(digest, spec.name, spec.to_dict())
        samples: dict[str, list[float]] = {
            "service.digest_us": [], "service.cache_put_ms": [],
            "service.cache_get_ms": [], "service.journal_save_ms": []}
        for i in range(50):
            t0 = clock()
            spec_digest(spec)
            t1 = clock()
            key = f"{i:02x}{digest[2:]}"
            cache.put(key, toml, doc, rows, header)
            t2 = clock()
            stored = cache.get(key).result()
            t3 = clock()
            store.save(record)
            t4 = clock()
            check(stored == doc, "the cache returned another document")
            samples["service.digest_us"].append((t1 - t0) * 1e6)
            samples["service.cache_put_ms"].append((t2 - t1) * 1e3)
            samples["service.cache_get_ms"].append((t3 - t2) * 1e3)
            samples["service.journal_save_ms"].append((t4 - t3) * 1e3)
        out.update({k: statistics.median(v) for k, v in samples.items()})
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Phold, FabricStorm, FabricStormYawns, FabricStormAccel,
                MpiSmallAllreduce, HybridMix, PaperStartup, ServiceSubmit)
}

