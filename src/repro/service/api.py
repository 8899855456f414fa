"""The service layer proper: one cache-aware run path, one submit API.

:func:`execute_spec` is the single place a scenario is executed on
behalf of the service -- the worker pool, the in-process
:class:`SubmitAPI` and the tests all funnel through it, so cache
keying and telemetry capture/replay cannot drift between transports:

* **hit**: return the stored result document and *replay* the stored
  unfiltered telemetry rows into the spec's own ``[metrics]`` sinks
  (JSONL path, filter globs) -- the fix for the harness-cache flaw
  where a hit silently produced no row stream;
* **miss**: run the scenario with
  :func:`~repro.scenario.runner.run_scenario`, capture the full
  unfiltered row stream, and store spec text + result + rows.

:class:`SubmitAPI` is the transport-free service surface
(submit/status/result/cancel/stats over a :class:`JobStore` +
:class:`ResultCache`).  It executes submissions synchronously in
process -- tests and library callers get real service semantics with
zero moving parts -- while :class:`~repro.service.server.SimulationServer`
subclasses it to push execution onto the persistent worker pool.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Mapping

from repro.scenario import ScenarioError, ScenarioSpec, parse_scenario, to_toml
from repro.scenario.runner import run_scenario
from repro.service.cache import ResultCache, spec_digest
from repro.service.jobs import JobRecord, JobState, JobStore
from repro.telemetry import JsonlSink, MemorySink


class ServiceError(RuntimeError):
    """A service-level request error (unknown job, bad spec...)."""


def _drive_spec_sinks_from_entry(spec: ScenarioSpec, entry) -> None:
    """Replay a cache entry's rows into the spec's ``[metrics]`` JSONL
    sink, exactly as a live run would have written it.  The embedded
    summary needs no replay -- it is part of the stored result
    document (``summary`` is in the digest, so hit and miss agree on
    it)."""
    m = spec.metrics
    if m is not None and m.jsonl:
        meta = {"scenario": spec.name, "seed": spec.seed,
                "horizon": spec.horizon}
        entry.replay(JsonlSink(m.jsonl), m.filter or None, meta=meta)


def execute_spec(
    spec: ScenarioSpec,
    cache: ResultCache | None = None,
) -> tuple[dict[str, Any], bool]:
    """Run (or fetch) one scenario; returns ``(result_json, cached)``."""
    digest = spec_digest(spec)
    if cache is not None:
        entry = cache.get(digest)
        if entry is not None:
            _drive_spec_sinks_from_entry(spec, entry)
            return entry.result(), True
    result = run_scenario(spec)
    doc = result.to_json_dict()
    if cache is not None:
        telemetry = result.telemetry
        assert telemetry is not None
        sink = telemetry.export(MemorySink(), None, meta={
            "scenario": spec.name, "seed": spec.seed, "horizon": spec.horizon,
        })
        cache.put(digest, to_toml(spec), doc, sink.rows, sink.header)
    return doc, False


def parse_submission(spec: "ScenarioSpec | Mapping[str, Any]",
                     name: str | None = None) -> ScenarioSpec:
    """Validate one submission through the real scenario parser."""
    if isinstance(spec, ScenarioSpec):
        return spec
    try:
        mapping = dict(spec)
        return parse_scenario(mapping,
                              name=name or mapping.get("name", "submitted"))
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"submission is not a scenario mapping: {exc}") \
            from None


class SubmitAPI:
    """Submit/status/result/cancel over a journal and a result cache.

    ``state_dir`` holds the journal (``jobs/``); ``cache_dir`` defaults
    to ``<state_dir>/cache``.
    This base class executes synchronously at :meth:`submit` time; the
    server overrides :meth:`_dispatch` to enqueue instead.
    """

    def __init__(
        self,
        state_dir: "str | os.PathLike",
        cache_dir: "str | os.PathLike | None" = None,
        telemetry=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.store = JobStore(self.state_dir)
        self.cache = ResultCache(
            Path(cache_dir) if cache_dir is not None
            else self.state_dir / "cache",
            telemetry=telemetry,
        )

    # -- the surface ------------------------------------------------------
    def submit(self, spec: "ScenarioSpec | Mapping[str, Any]") -> JobRecord:
        """Accept one spec; returns its (possibly already-done) record.

        A spec whose digest is already cached completes instantly
        (``state == done``, ``cached=True``) without touching a worker
        -- the submit-time probe counts as a cache hit.
        """
        parsed = parse_submission(spec)
        digest = spec_digest(parsed)
        record = self.store.new_job(digest, parsed.name, parsed.to_dict())
        entry = self.cache.get(digest)
        if entry is not None:
            _drive_spec_sinks_from_entry(parsed, entry)
            record.state = JobState.DONE
            record.cached = True
            self.store.save(record)
            return record
        return self._dispatch(record, parsed)

    def status(self, job_id: str) -> JobRecord:
        try:
            return self.store.load(job_id)
        except KeyError as exc:
            raise ServiceError(str(exc)) from None

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job's result document (from the cache)."""
        record = self.status(job_id)
        if record.state is not JobState.DONE:
            raise ServiceError(
                f"job {job_id} is {record.state.value}, not done"
                + (f": {record.error}" if record.error else "")
            )
        entry = self.cache.get(record.digest)
        if entry is None:  # pragma: no cover - cache dir deleted underneath
            raise ServiceError(f"job {job_id} result evicted from cache")
        return entry.result()

    def telemetry_jsonl(self, job_id: str) -> str:
        """The finished job's stored row stream as JSONL text."""
        record = self.status(job_id)
        if record.state is not JobState.DONE:
            raise ServiceError(f"job {job_id} is {record.state.value}, not done")
        entry = self.cache.get(record.digest)
        if entry is None:  # pragma: no cover - cache dir deleted underneath
            raise ServiceError(f"job {job_id} telemetry evicted from cache")
        return (entry.path / "telemetry.jsonl").read_text()

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued/running job; terminal jobs are left alone."""
        record = self.status(job_id)
        if not record.state.terminal():
            record.state = JobState.CANCELLED
            self.store.save(record)
            self._on_cancel(record)
        return record

    def jobs(self) -> list[JobRecord]:
        return self.store.list()

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.05) -> JobRecord:
        """Block until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record.state.terminal():
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record.state.value} after "
                    f"{timeout:g}s")
            time.sleep(poll)

    def stats(self) -> dict[str, Any]:
        return {"jobs": self.store.counts(), "cache": self.cache.stats()}

    # -- execution strategy (the server overrides these) -------------------
    def _dispatch(self, record: JobRecord, spec: ScenarioSpec) -> JobRecord:
        """Run synchronously in process (the library-mode strategy)."""
        record.state = JobState.RUNNING
        record.attempts += 1
        self.store.save(record)
        try:
            _, cached = execute_spec(spec, self.cache)
        except Exception as exc:  # noqa: BLE001 - journal every failure
            record.state = JobState.FAILED
            record.error = f"{type(exc).__name__}: {exc}"
        else:
            record.state = JobState.DONE
            record.cached = cached
        self.store.save(record)
        return record

    def _on_cancel(self, record: JobRecord) -> None:
        """Hook for transports that must stop in-flight work."""
