"""Simulation-as-a-service: persistent server, result cache, recovery.

The serving layer the ROADMAP's "heavy traffic" north star asks for.
One CLI invocation per scenario does not scale to many concurrent
clients; :mod:`repro.service` turns the existing building blocks into a
long-lived service:

* :mod:`repro.service.cache`      -- content-addressed on-disk result
  store keyed on the canonical-TOML hash of the spec
  (:func:`spec_digest`), with hit/miss telemetry and stored-row replay
  into the caller's sinks;
* :mod:`repro.service.api`        -- the in-process :class:`SubmitAPI`
  service layer (submit/status/result/cancel) that the server, the CLI
  client and tests all share, plus :func:`execute_spec`, the one
  cache-aware run path;
* :mod:`repro.service.jobs`       -- the journaled job store
  (:class:`JobRecord` / :class:`JobStore`), durable across restarts;
* :mod:`repro.service.server`     -- :class:`SimulationServer`, a
  persistent :mod:`repro.pool` worker pool (warm interpreters) behind an
  async job queue with dead-worker detection; a dead worker's job is
  requeued and re-run from its journaled spec;
* :mod:`repro.service.http`       -- the stdlib HTTP transport
  (``union-sim serve``) and :mod:`repro.service.client` -- the urllib
  client (``union-sim submit`` / ``union-sim jobs``).

See ``docs/service.md`` for the server model, cache keying and crash
recovery.
"""

from repro.service.api import ServiceError, SubmitAPI, execute_spec
from repro.service.cache import CacheEntry, ResultCache, cache_mapping, spec_digest
from repro.service.jobs import JobRecord, JobState, JobStore
from repro.service.server import SimulationServer

__all__ = [
    "CacheEntry",
    "JobRecord",
    "JobState",
    "JobStore",
    "ResultCache",
    "ServiceError",
    "SimulationServer",
    "SubmitAPI",
    "cache_mapping",
    "execute_spec",
    "spec_digest",
]
