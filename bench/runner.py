"""Run one workload, or all of them, and print every metric by name.

Load shape: a closed loop with one client, one process and one thread.
Ops run back to back, ``gc.collect()`` before each (the collector stays
enabled).  The only processes ever started are waited-for
``subprocess.run`` children: the fresh interpreter of each set-up
repetition and, under ``--all``, one interpreter per workload run.
No server, no pool, no thread, no socket.

Statistics: a timing is the median over the ops of a run, printed with
its quartiles and sample count.  With fewer than 20 samples no
percentile beyond the median is reported.

Everything the run writes lives under ``bench/out/``; its scratch
directory (service state, kernel build caches) is removed before the
run returns, and the leak guard fails the run if a child process
outlives it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench import BENCH_DIR, ROOT, CheckFailed
from bench.trace import OP_SPAN, NullTracer, Tracer

OUT_DIR = BENCH_DIR / "out"
CONTRACT_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest measured ops of an untraced run, however short ``--seconds``.
MIN_OPS = 3
#: The seed ``bench/expected.json`` pins digests and counters for.
DEFAULT_SEED = 1

#: Per-layer timing metrics that are the total of one span name per op:
#: ``metric -> (span, seconds-to-unit factor)``.
SPAN_METRICS = {
    "pdes.run_s": ("pdes.run", 1.0),
    "parallel.plan_s": ("parallel.plan", 1.0),
    "network.topology_build_s": ("network.topology_build", 1.0),
    "network.fabric_build_s": ("network.fabric_build", 1.0),
    "network.inject_s": ("network.inject", 1.0),
    "network.run_s": ("network.run", 1.0),
    "mpi.add_job_s": ("mpi.add_job", 1.0),
    "mpi.start_s": ("mpi.start", 1.0),
    "mpi.run_s": ("mpi.run", 1.0),
    "union.build_s": ("union.build", 1.0),
    "union.step_s": ("union.step", 1.0),
    "union.finalize_s": ("union.finalize", 1.0),
    "union.observe_us": ("union.observe", 1e6),
    "scenario.parse_s": ("scenario.parse", 1.0),
    "scenario.build_manager_s": ("scenario.build_manager", 1.0),
    "scenario.reduce_s": ("scenario.reduce", 1.0),
    "scenario.emit_json_s": ("scenario.emit_json", 1.0),
    "scenario.to_toml_s": ("scenario.to_toml", 1.0),
    "telemetry.export_s": ("telemetry.export", 1.0),
    "generate.spec_s": ("generate.spec", 1.0),
    "service.cold_submit_s": ("service.cold_submit", 1.0),
}

#: Units whose values are exact: they must repeat bit for bit between
#: two runs of one seed.  Simulated results (``.sim_`` in the name) are
#: exact too.
EXACT_UNITS = frozenset({"count", "bytes", "hash48"})


def is_exact(name: str, unit: str) -> bool:
    return unit in EXACT_UNITS or ".sim_" in name


def load_contract() -> dict:
    return json.loads(CONTRACT_PATH.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; the quartiles collapse onto a lone value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def hash48(digest: str) -> int:
    """The first 48 bits of a hex digest: a number JSON carries exactly."""
    return int(digest[:12], 16)


def metric_line(metric: dict, workload: str, value: float) -> str:
    """``name workload value unit``; whole numbers keep every digit."""
    shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.9g}"
    return f"{metric['name']:<36} {workload:<20} {shown} {metric['unit']}"


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


# -- scratch, set-up ------------------------------------------------------------------

#: Environment a run redirects into its scratch directory: the kernel
#: build cache (the program's default is under the user's home) and the
#: C compiler's temporary files.
_REDIRECTED = ("UNION_ACCEL_CACHE", "TMPDIR")


@contextlib.contextmanager
def scratch_dir(name: str):
    """A private directory under ``bench/out/`` for everything a run
    writes besides its trace.  On the way out the environment is put
    back, the directory removed and the leak guard run."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT_DIR))
    saved = {key: os.environ.get(key) for key in _REDIRECTED}
    os.environ["TMPDIR"] = str(scratch)
    try:
        yield scratch
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(scratch)
        leak_guard()


def set_up(workload, scratch: Path, note) -> tuple[float, dict[str, float], int]:
    """Set the workload up :data:`SETUP_REPS` times; each repetition is a
    fresh interpreter executing the workload's cold start (imports, for
    the accel workload a kernel compile into an empty cache) followed by
    ``prepare()`` in this process.  Returns the median seconds, the
    medians of whatever the cold starts reported, and the number of
    repetitions whose warm-up check failed."""
    samples: list[float] = []
    reported: dict[str, list[float]] = {}
    failed = 0
    for rep in range(SETUP_REPS):
        os.environ["UNION_ACCEL_CACHE"] = str(scratch / f"accel-cache-{rep}")
        gc.collect()
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", workload.cold_start], cwd=ROOT,
            capture_output=True, text=True, timeout=150)
        if child.returncode != 0:
            raise BenchError(f"cold start failed:\n{child.stderr}")
        try:
            workload.prepare()
        except CheckFailed as exc:
            failed += 1
            note(f"set-up check failed: {exc}")
        samples.append(time.perf_counter() - start)
        for line in child.stdout.splitlines():
            name, value = line.split()
            reported.setdefault(name, []).append(float(value))
    return (statistics.median(samples),
            {k: statistics.median(v) for k, v in reported.items()}, failed)


# -- the op loop -------------------------------------------------------------------------


class OpLog:
    """Per-op samples of one run, and its failures."""

    def __init__(self, workload, note) -> None:
        self.workload = workload
        self.note = note
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.rate: list[float] = []
        self.traced: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.last = None

    def run(self, tracer) -> None:
        """One op: collect, time, check."""
        self.attempted += 1
        tracer.op = self.attempted
        gc.collect()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            with tracer.span(OP_SPAN):
                result = self.workload.op(tracer)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if self.workload.same_digest_every_op and self.first is not None \
                    and result.digest != self.first.digest:
                raise CheckFailed("digest differs from the run's first op")
        except CheckFailed as exc:
            self.failed += 1
            self.note(f"op {self.attempted} failed: {exc}")
            return
        if self.first is None:
            self.first = result
        self.last = result
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.rate.append(result.events / wall)
        self.traced.append(tracer.enabled)


# -- one workload -------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", reps: int | None = None,
                 expected: dict | None = None, pin: bool = False,
                 out=sys.stdout) -> dict:
    """Run one workload in this process; print its metrics to ``out``
    and return the result object (``correct/attempted/failed/metrics``).
    """
    try:
        from bench.workloads import WORKLOADS
    except ImportError as exc:
        raise BenchError(
            f"cannot import the program under test ({exc}); run from a "
            "checkout that has src/repro") from exc

    contract = load_contract()

    def note(text: str) -> None:
        print(f"# {name}: {text}", file=out)

    with scratch_dir(name) as scratch:
        workload = WORKLOADS[name](seed, size, scratch)
        setup_s, cold_reported, setup_failed = set_up(workload, scratch, note)
        log = OpLog(workload, note)
        log.attempted = log.failed = setup_failed
        if trace:
            values = run_traced(workload, log, reps, seed)
            values.update(cold_reported)
            values.update(drift(values, contract, expected, size, name, seed,
                                pin, note))
            section = contract["per_layer"]
        else:
            started = time.perf_counter()
            ops = 0
            while ops < (reps or MIN_OPS) or (
                    reps is None and time.perf_counter() - started < seconds):
                log.run(NullTracer())
                ops += 1
            values = end_to_end(log, setup_s) if log.wall else {}
            section = contract["end_to_end"]

    known = {m["name"] for m in section}
    stray = sorted(set(values) - known)
    if stray:
        raise BenchError(f"metrics missing from BENCHMARK.json: {stray}")
    metrics = {}
    for m in section:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(metric_line(m, name, value), file=out)
    if not trace and log.wall:
        q1, med, q3 = quartiles(log.wall)
        note(f"op_wall_s over {len(log.wall)} ops: q1 {q1:.4f} median "
             f"{med:.4f} q3 {q3:.4f}; {log.last.events} events per op; "
             "fewer than 20 samples, so no percentile beyond the median")
    return {"correct": log.failed == 0 and bool(log.wall),
            "attempted": max(log.attempted, 1), "failed": log.failed,
            "metrics": metrics}


def end_to_end(log: OpLog, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "op_wall_s": statistics.median(log.wall),
        "op_cpu_s": statistics.median(log.cpu),
        "events_per_s": statistics.median(log.rate),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, log: OpLog, reps: int | None, seed: int) -> dict[str, float]:
    """Traced and untraced ops alternate (the pair gives the tracing
    overhead); then the workload's probes; then every per-layer metric
    this workload has a value for."""
    tracer = Tracer()
    for _ in range(reps or workload.trace_ops):
        log.run(tracer)
        log.run(NullTracer())
    ops = tracer.ops()
    if not ops or log.failed:
        return {}
    tracer.op = -1
    values = dict(log.last.counts)
    values.update(workload.probes(tracer))
    tracer.write(OUT_DIR / f"trace-{workload.name}.json", workload.name, seed)

    def median_of(fn) -> float:
        return statistics.median(fn(op) for op in ops)

    for metric, (span, factor) in SPAN_METRICS.items():
        if metric not in values:
            values[metric] = median_of(lambda op: tracer.total_s(span, op)) * factor
    events = log.last.events
    op_s = median_of(lambda op: tracer.total_s(OP_SPAN, op))
    values["pdes.events_committed"] = events
    values["pdes.op_share"] = median_of(
        lambda op: tracer.self_s_by_layer(op).get("pdes", 0.0)
        / tracer.total_s(OP_SPAN, op))
    if values["pdes.run_s"]:
        values["pdes.ns_per_event"] = values["pdes.run_s"] / events * 1e9
    if values["network.run_s"]:
        values["network.ns_per_event"] = values["network.run_s"] / events * 1e9
    if values["mpi.run_s"]:
        values["mpi.us_per_msg"] = (values["mpi.run_s"]
                                    / values["mpi.msgs_recvd"] * 1e6)
    if values["union.step_s"]:
        values["scenario.fixed_share"] = median_of(
            lambda op: 1 - tracer.total_s("union.step", op)
            / tracer.total_s(OP_SPAN, op))
    hits = sorted((s[2] - s[1]) * 1e-6 for s in tracer.spans
                  if s[0] == "service.hit" and s[4] > 0)
    if hits:
        values["service.hit_ms"] = statistics.median(hits)
        # p90 needs ten samples beyond it.
        if len(hits) >= 100:
            values["service.hit_p90_ms"] = hits[int(len(hits) * 0.9)]
    values["scenario.result_digest"] = hash48(log.first.digest)
    values["trace.spans"] = sum(1 for s in tracer.spans if s[4] > 0)
    untraced = [w for w, t in zip(log.wall, log.traced) if not t]
    values["trace.overhead_ratio"] = op_s / statistics.median(untraced)
    return values


def drift(values: dict, contract: dict, expected: dict | None, size: str,
          name: str, seed: int, pin: bool, note) -> dict[str, float]:
    """Compare the exact metrics of a default-seed traced run with what
    ``bench/expected.json`` pins (or pin them).  A mismatch is reported
    as ``scenario.digest_drift = 1``, not as a failed op: a modelling
    change may move it, a performance or simplicity change may not."""
    if seed != DEFAULT_SEED or not values:
        return {}
    exact = {m["name"]: values.get(m["name"], 0) for m in contract["per_layer"]
             if is_exact(m["name"], m["unit"])
             and m["name"] != "scenario.digest_drift"}
    if pin:
        doc = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() \
            else {"seed": DEFAULT_SEED}
        doc.setdefault(size, {})[name] = exact
        EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        note(f"pinned {len(exact)} exact values in {EXPECTED_PATH.name}")
        return {}
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    pinned = expected.get(size, {}).get(name)
    if pinned is None:
        return {}
    moved = sorted(k for k in exact if pinned.get(k) != exact[k])
    if moved:
        note(f"drift from expected.json in {moved}")
    return {"scenario.digest_drift": int(bool(moved))}


# -- leak guard -------------------------------------------------------------------------------


def live_descendants(pid: int) -> list[int]:
    """Pids of live processes descended from ``pid``, from ``/proc``."""
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # pid (comm) state ppid ...; comm may hold spaces and parentheses
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            parent[int(entry)] = int(fields[1])
    found = []
    for child in parent:
        at = child
        while at in parent and at != pid:
            at = parent[at]
        if at == pid and child != pid:
            found.append(child)
    return found


def leak_guard() -> None:
    """Fail loudly if anything this run started is still alive."""
    children = multiprocessing.active_children()
    alive = live_descendants(os.getpid())
    if children or alive:
        raise BenchError(f"process left running: multiprocessing children "
                         f"{children}, descendants {alive}")


# -- all workloads, each in its own interpreter ------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One workload run in a fresh interpreter; returns its result line."""
    cmd = [sys.executable, "-m", "bench", "run", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if size == "quick":
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=600)
    if child.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {child.returncode}:\n"
                         f"{child.stdout}{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def run_all(seed: int, seconds: float, runs: int, size: str,
            out=sys.stdout) -> dict:
    """Every workload: ``runs`` untraced runs on seeds ``seed ..
    seed+runs-1`` and one traced run on ``seed``, each in its own
    interpreter, one after another.  Returns the result set."""
    contract = load_contract()
    result_set: dict = {"schema": 1, "seed": seed, "runs": runs, "size": size,
                        "seconds": seconds, "workloads": {}}
    for w in contract["workloads"]:
        name = w["name"]
        lines = [run_child(name, seed + i, seconds, False, size)
                 for i in range(runs)]
        traced = run_child(name, seed, seconds, True, size)
        end = {}
        for m in contract["end_to_end"]:
            vals = [line["metrics"][m["name"]]["value"] for line in lines]
            q1, med, q3 = quartiles(vals)
            end[m["name"]] = {"unit": m["unit"], "values": vals,
                              "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med}
            print(metric_line(m, name, med)
                  + f"  (n={runs}, q1 {q1:.6g}, q3 {q3:.6g})", file=out)
        for m in contract["per_layer"]:
            value = traced["metrics"][m["name"]]["value"]
            print(metric_line(m, name, value), file=out)
        every = lines + [traced]
        result_set["workloads"][name] = {
            "end_to_end": end,
            "per_layer": traced["metrics"],
            "attempted": sum(line["attempted"] for line in every),
            "failed": sum(line["failed"] for line in every),
        }
    # Results, not a claim: a gain is claimed by a later change, against
    # the baseline, by the rule in bench/README.md.
    result_set["claim"] = None
    return result_set
