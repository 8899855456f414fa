"""The persistent worker: one warm interpreter draining the job queue.

:func:`worker_loop` is the sole code a service worker process runs --
a module-level function (picklable under the ``spawn`` start method)
that loops task-queue -> execute -> result-queue until it receives the
``None`` sentinel.  Workers stay alive between jobs, so every job
after the first skips interpreter start-up and module import cost
("warm interpreter" serving).

Protocol on the result queue (plain tuples, journal-free -- the parent
owns the journal):

* ``("start", worker_id, job_id, pid)`` -- picked a task up;
* ``("done", worker_id, job_id, cached)`` -- finished (result is in
  the shared on-disk cache);
* ``("error", worker_id, job_id, message)`` -- the scenario raised.

A worker that dies without reporting (SIGKILL, OOM) is detected by the
parent's monitor via its exit code; the job is requeued and re-run from
the spec the task carries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.service.api import execute_spec, parse_submission
from repro.service.cache import ResultCache


@dataclass
class WorkerTask:
    """One queued unit of work (picklable; self-contained spec)."""

    job_id: str
    digest: str
    spec: dict[str, Any] = field(default_factory=dict)


def worker_loop(worker_id: int, tasks, results, cache_dir: str) -> None:
    """Drain ``tasks`` until the ``None`` sentinel arrives."""
    cache = ResultCache(cache_dir)
    while True:
        task = tasks.get()
        if task is None:
            break
        results.put(("start", worker_id, task.job_id, os.getpid()))
        try:
            _, cached = execute_spec(parse_submission(task.spec), cache)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            results.put(("error", worker_id, task.job_id,
                         f"{type(exc).__name__}: {exc}"))
        else:
            results.put(("done", worker_id, task.job_id, cached))
