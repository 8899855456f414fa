"""The long-lived simulation server: queue, pool, monitor, recovery.

:class:`SimulationServer` is :class:`~repro.service.api.SubmitAPI` with
execution pushed onto a persistent :class:`~repro.pool.WorkerPool`
of warm interpreters.  One monitor thread drives the pool and journals
what it reports: a job sent to a worker is ``running`` on that worker's
slot and pid; its reply makes it ``done`` or ``failed``; a **dead
worker**'s job is requeued to re-run from its journaled spec,
bit-identically by the determinism contract (``max_attempts`` bounds
the loop).

``recover()`` (called by :meth:`start`) re-enqueues every queued or
running journal entry left by a previous server process -- restarting
the server never loses accepted work.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.pool import WorkerPool
from repro.scenario import ScenarioSpec
from repro.service.api import SubmitAPI, execute_spec, parse_submission
from repro.service.cache import ResultCache
from repro.service.jobs import JobRecord, JobState


def _run_job(task: tuple[str, dict[str, Any]]) -> bool:
    """A worker's whole job: run (or fetch) one journaled spec through the
    shared on-disk cache; returns whether it was a cache hit."""
    cache_dir, spec = task
    _, cached = execute_spec(parse_submission(spec), ResultCache(cache_dir))
    return cached


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
        self._pool: WorkerPool | None = None
        #: Serialises journal read-modify-writes of the monitor and
        #: :meth:`cancel`, so neither overwrites the other's verdict.
        self._lock = threading.Lock()
        self._monitor: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "SimulationServer":
        """Spawn the pool, recover leftover jobs, start the monitor."""
        if self._pool is not None:
            raise RuntimeError("server already started")
        self._pool = WorkerPool(self.n_workers)
        self.recover()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         args=(self._pool,),
                                         name="service-monitor", daemon=True)
        self._monitor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain nothing, stop everything: stop the monitor, then let each
        worker finish within ``timeout`` and terminate stragglers.  Queued
        jobs stay in the journal and are recovered on the next start."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.wake()
        self._monitor.join(timeout=2.0)
        pool.close(timeout)

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

    def cancel(self, job_id: str) -> JobRecord:
        """Drop a queued job from the pool, or kill a running one's worker."""
        with self._lock:
            record = super().cancel(job_id)
            if self._pool is not None:
                self._pool.cancel(job_id)
            return record

    # -- SubmitAPI strategy overrides --------------------------------------
    def _dispatch(self, record: JobRecord, spec: ScenarioSpec) -> JobRecord:
        if self._pool is None:
            raise RuntimeError("server not started; call start() first")
        self._enqueue(record)
        return record

    # -- pool internals ----------------------------------------------------
    def _enqueue(self, record: JobRecord) -> None:
        pool = self._pool
        if pool is not None:  # else stopping: recover() requeues it at start
            pool.submit(record.job_id, _run_job,
                        (str(self.cache.root), record.spec))

    def _monitor_loop(self, pool: WorkerPool) -> None:
        while self._pool is pool:  # until stop() detaches and wakes it
            for kind, job_id, value in pool.step():
                with self._lock:
                    self._apply(kind, job_id, value)

    def _apply(self, kind: str, job_id: str, value: Any) -> None:
        """Journal one pool event.  A cancelled job keeps its verdict,
        whatever its worker reports."""
        try:
            record = self.store.load(job_id)
        except KeyError:  # pragma: no cover - journal wiped underneath
            return
        if record.state.terminal():
            return
        requeue = False
        if kind == "start":
            record.state = JobState.RUNNING
            record.attempts += 1
            record.worker, record.pid = value
        elif kind == "done":
            record.state = JobState.DONE
            record.cached = bool(value)
        elif kind == "error":
            record.state = JobState.FAILED
            record.error = f"{type(value).__name__}: {value}"
        else:  # "died"
            note = (f"worker {record.worker} (pid {record.pid}) died with "
                    f"exit code {value} during attempt {record.attempts}")
            requeue = record.attempts < self.max_attempts
            record.state = JobState.QUEUED if requeue else JobState.FAILED
            record.error = note + ("; re-running from its spec" if requeue else
                                   f"; giving up after {record.attempts} attempts")
        if kind != "start":
            record.worker = record.pid = None
        self.store.save(record)
        if requeue:
            self._enqueue(record)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        out = super().stats()
        pool = self._pool
        out["workers"] = {"configured": self.n_workers,
                          **(pool.counts() if pool else {"alive": 0, "busy": 0})}
        return out
