"""The long-lived simulation server: queue, pool, monitor, recovery.

:class:`SimulationServer` is :class:`~repro.service.api.SubmitAPI` with
execution pushed onto a persistent pool of ``spawn``-context worker
processes (warm interpreters; see :mod:`repro.service.worker`).  The
parent owns the journal and runs one monitor thread that

* applies worker reports (start/done/error) to the journal,
* detects **dead workers** (an exit code where none was expected --
  SIGKILL, OOM), respawns the slot, and requeues the job that was in
  flight; it re-runs from its journaled spec, and by the determinism
  contract its result is bit-identical (``max_attempts`` bounds the
  crash-requeue loop; a job that keeps killing workers fails loudly),
* enforces cancellation: a task whose journal entry was cancelled
  before a worker picked it up is killed at pick-up.

``recover()`` (called by :meth:`start`) re-enqueues every queued or
running journal entry left by a previous server process -- restarting
the server never loses accepted work.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
from typing import Any

from repro.scenario import ScenarioSpec
from repro.service.api import SubmitAPI
from repro.service.jobs import JobRecord, JobState
from repro.service.worker import WorkerTask, worker_loop

#: How often (s) the monitor wakes to poll worker liveness.
_MONITOR_TICK = 0.1


class SimulationServer(SubmitAPI):
    """An async job queue over a persistent worker pool."""

    def __init__(
        self,
        state_dir,
        workers: int = 2,
        cache_dir=None,
        max_attempts: int = 3,
        telemetry=None,
    ) -> None:
        super().__init__(state_dir, cache_dir=cache_dir, telemetry=telemetry)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.n_workers = workers
        self.max_attempts = max_attempts
        # The spawn context keeps workers free of inherited engine/
        # telemetry state and is safe alongside the monitor thread.
        self._ctx = multiprocessing.get_context("spawn")
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._procs: list[Any] = [None] * workers
        #: Worker slot -> job_id currently in flight on it.
        self._in_flight: dict[int, str] = {}
        #: Respawns allowed for workers that die *idle* -- a worker
        #: that cannot even start (broken environment) must not turn
        #: the monitor into a fork bomb.  Deaths with a job in flight
        #: are bounded per job by ``max_attempts`` instead.
        self._idle_respawns = 3 * workers
        self._lock = threading.Lock()
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "SimulationServer":
        """Spawn the pool, recover leftover jobs, start the monitor."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for slot in range(self.n_workers):
            self._spawn(slot)
        self.recover()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="service-monitor", daemon=True)
        self._monitor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain nothing, stop everything: sentinel each worker, join,
        terminate stragglers, stop the monitor.  Queued jobs stay in
        the journal and are recovered on the next start."""
        if not self._started:
            return
        self._stopping.set()
        for _ in range(self.n_workers):
            self._tasks.put(None)
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=timeout / max(1, self.n_workers))
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        self._started = False

    def __enter__(self) -> "SimulationServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def recover(self) -> list[JobRecord]:
        """Re-enqueue every queued/running entry a dead server left;
        each re-runs from its journaled spec."""
        recovered = []
        for record in self.store.recoverable():
            record.state = JobState.QUEUED
            record.worker = record.pid = None
            self.store.save(record)
            self._enqueue(record)
            recovered.append(record)
        return recovered

    # -- SubmitAPI strategy overrides --------------------------------------
    def _dispatch(self, record: JobRecord, spec: ScenarioSpec) -> JobRecord:
        if not self._started:
            raise RuntimeError("server not started; call start() first")
        self._enqueue(record)
        return record

    def _on_cancel(self, record: JobRecord) -> None:
        """Kill the worker running a cancelled job (the slot respawns
        via the monitor's liveness pass; the job is *not* requeued)."""
        with self._lock:
            for slot, job_id in self._in_flight.items():
                if job_id == record.job_id:
                    proc = self._procs[slot]
                    if proc is not None and proc.is_alive():
                        proc.terminate()
                    break

    # -- pool internals ----------------------------------------------------
    def _enqueue(self, record: JobRecord) -> None:
        self._tasks.put(WorkerTask(job_id=record.job_id, digest=record.digest,
                                   spec=record.spec))

    def _spawn(self, slot: int) -> None:
        proc = self._ctx.Process(
            target=worker_loop,
            args=(slot, self._tasks, self._results, str(self.cache.root)),
            name=f"service-worker-{slot}",
            daemon=True,
        )
        proc.start()
        self._procs[slot] = proc

    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                msg = self._results.get(timeout=_MONITOR_TICK)
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                self._apply(msg)
            self._reap_dead_workers()

    def _apply(self, msg: tuple) -> None:
        kind, slot, job_id = msg[0], msg[1], msg[2]
        try:
            record = self.store.load(job_id)
        except KeyError:  # pragma: no cover - journal wiped underneath
            return
        if kind == "start":
            if record.state is JobState.CANCELLED:
                # Cancelled while queued: the worker just picked it up;
                # kill the attempt (the slot respawns on the next tick).
                with self._lock:
                    self._in_flight[slot] = job_id
                proc = self._procs[slot]
                if proc is not None and proc.is_alive():
                    proc.terminate()
                return
            with self._lock:
                self._in_flight[slot] = job_id
            record.state = JobState.RUNNING
            record.attempts += 1
            record.worker = slot
            record.pid = msg[3]
            self.store.save(record)
        elif kind in ("done", "error"):
            with self._lock:
                self._in_flight.pop(slot, None)
            if record.state is JobState.CANCELLED:
                return  # finished anyway; keep the cancel verdict
            if kind == "done":
                record.state = JobState.DONE
                record.cached = bool(msg[3])
            else:
                record.state = JobState.FAILED
                record.error = msg[3]
            record.worker = record.pid = None
            self.store.save(record)

    def _reap_dead_workers(self) -> None:
        for slot, proc in enumerate(self._procs):
            if proc is None or proc.is_alive():
                continue
            if self._stopping.is_set():
                return
            with self._lock:
                job_id = self._in_flight.pop(slot, None)
            if job_id is None:
                if self._idle_respawns > 0:
                    self._idle_respawns -= 1
                    self._spawn(slot)
                else:
                    self._procs[slot] = None  # give up on this slot
                continue
            self._spawn(slot)
            try:
                record = self.store.load(job_id)
            except KeyError:  # pragma: no cover
                continue
            if record.state.terminal():
                continue  # cancelled (or raced to done): do not requeue
            note = (f"worker {slot} (pid {record.pid}) died with exit code "
                    f"{proc.exitcode} during attempt {record.attempts}")
            if record.attempts >= self.max_attempts:
                record.state = JobState.FAILED
                record.error = note + f"; giving up after {record.attempts} attempts"
                record.worker = record.pid = None
                self.store.save(record)
                continue
            record.state = JobState.QUEUED
            record.error = note + "; re-running from its spec"
            record.worker = record.pid = None
            self.store.save(record)
            self._enqueue(record)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        out = super().stats()
        out["workers"] = {
            "configured": self.n_workers,
            "alive": sum(1 for p in self._procs
                         if p is not None and p.is_alive()),
            "busy": len(self._in_flight),
        }
        return out
