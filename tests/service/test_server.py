"""The persistent worker-pool server: queue, crash recovery, restart.

These tests spawn real worker processes (the ``spawn`` context), so
they are the slowest in the service suite; each keeps its scenario
small and its pool to one or two workers.
"""

import copy
import os
import signal
import time

import pytest

from repro.scenario import parse_scenario
from repro.scenario.runner import run_scenario
from repro.service import JobState, JobStore, SimulationServer, spec_digest

TINY = {
    "name": "tiny-srv",
    "seed": 17,
    "horizon": 0.005,
    "placement": "rn",
    "topology": {"network": "1d"},
    "jobs": [{"app": "nn", "params": {"iters": 2}}],
}

#: Endless uniform traffic over a long horizon: slow enough (over 1 s
#: wall) that a kill lands mid-run.
LONG = {
    "name": "long-srv",
    "seed": 5,
    "horizon": 1.5,
    "jobs": [{"app": "ur", "name": "ur0"}],
}


def _mapping(base, **extra):
    data = copy.deepcopy(base)
    data.update(extra)
    return data


def _wait_for(predicate, timeout=30.0, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError("condition not reached within timeout")


def test_submit_runs_on_the_pool_and_caches(tmp_path):
    with SimulationServer(tmp_path / "state", workers=2) as server:
        a = server.submit(_mapping(TINY))
        b = server.submit(_mapping(TINY, seed=18))
        assert a.state is JobState.QUEUED
        done_a = server.wait(a.job_id, timeout=60.0)
        done_b = server.wait(b.job_id, timeout=60.0)
        assert done_a.state is JobState.DONE and not done_a.cached
        assert done_b.state is JobState.DONE and not done_b.cached
        assert done_a.attempts == 1
        # Resubmit: the submit-time probe answers from the cache without
        # touching a worker.
        again = server.submit(_mapping(TINY))
        assert again.state is JobState.DONE and again.cached
        stats = server.stats()
        assert stats["workers"] == {"configured": 2, "alive": 2, "busy": 0}
        assert stats["jobs"]["done"] == 3
    # The pool is gone after the context exits.
    assert server.stats()["workers"]["alive"] == 0


def _running_pid(server, job_id):
    record = server.status(job_id)
    return record.pid if record.state is JobState.RUNNING else None


def test_sigkilled_worker_requeues_and_finishes_bit_identically(tmp_path):
    """The durability proof: SIGKILL the worker mid-run; the monitor
    requeues the job, it re-runs from its journaled spec and the
    finished result matches an uninterrupted in-process run bit for
    bit."""
    baseline = run_scenario(
        parse_scenario(_mapping(LONG), name=LONG["name"])).to_json_dict()
    with SimulationServer(tmp_path / "state", workers=1) as server:
        record = server.submit(_mapping(LONG))
        pid = _wait_for(lambda: _running_pid(server, record.job_id))
        os.kill(pid, signal.SIGKILL)
        done = server.wait(record.job_id, timeout=120.0)
        assert done.state is JobState.DONE
        assert done.attempts == 2
        assert "died with exit code -9" in done.error
        assert done.error.endswith("; re-running from its spec")
        assert server.result(record.job_id) == baseline


def test_job_that_keeps_killing_workers_fails_after_max_attempts(tmp_path):
    with SimulationServer(tmp_path / "state", workers=1,
                          max_attempts=2) as server:
        record = server.submit(_mapping(LONG))
        for _ in range(2):
            pid = _wait_for(lambda: _running_pid(server, record.job_id))
            os.kill(pid, signal.SIGKILL)
            _wait_for(lambda: server.status(record.job_id).pid != pid)
        done = server.wait(record.job_id, timeout=60.0)
        assert done.state is JobState.FAILED
        assert "giving up after 2 attempts" in done.error


def _restart_recovers(tmp_path, left):
    state = tmp_path / "state"
    store = JobStore(state)
    spec = parse_scenario(_mapping(TINY), name=TINY["name"])
    orphan = store.new_job(spec_digest(spec), spec.name, spec.to_dict())
    if left == "running":
        orphan.state = JobState.RUNNING
        orphan.attempts, orphan.worker, orphan.pid = 1, 0, 999999
        store.save(orphan)
    with SimulationServer(state, workers=1) as server:
        done = server.wait(orphan.job_id, timeout=60.0)
        assert done.state is JobState.DONE
        assert done.attempts == (2 if left == "running" else 1)
        assert done.worker is None and done.pid is None
        assert server.result(orphan.job_id) == run_scenario(
            parse_scenario(_mapping(TINY), name=TINY["name"])).to_json_dict()


def test_server_restart_recovers_journaled_jobs(tmp_path):
    """A job accepted (queued) by a dead server runs after restart."""
    _restart_recovers(tmp_path, "queued")


def test_server_restart_recovers_a_job_left_running(tmp_path):
    """A job a dead server left running on a worker that died with it
    re-runs from its spec after restart, as its second attempt."""
    _restart_recovers(tmp_path, "running")


def test_cancel_queued_job_never_runs(tmp_path):
    with SimulationServer(tmp_path / "state", workers=1) as server:
        blocker = server.submit(_mapping(LONG))
        victim = server.submit(_mapping(TINY))
        cancelled = server.cancel(victim.job_id)
        assert cancelled.state is JobState.CANCELLED
        server.cancel(blocker.job_id)
        final = server.wait(victim.job_id, timeout=60.0)
        assert final.state is JobState.CANCELLED
        assert final.attempts == 0 or final.pid is None


def test_dispatch_requires_a_started_server(tmp_path):
    server = SimulationServer(tmp_path / "state", workers=1)
    with pytest.raises(RuntimeError, match="not started"):
        server.submit(_mapping(TINY))
    with pytest.raises(ValueError, match="workers"):
        SimulationServer(tmp_path / "other", workers=0)


def test_results_survive_restart_in_the_shared_cache(tmp_path):
    state = tmp_path / "state"
    with SimulationServer(state, workers=1) as server:
        record = server.submit(_mapping(TINY))
        server.wait(record.job_id, timeout=60.0)
        doc = server.result(record.job_id)
    with SimulationServer(state, workers=1) as reborn:
        # Persistent cache: the resubmit is a hit across processes.
        again = reborn.submit(_mapping(TINY))
        assert again.state is JobState.DONE and again.cached
        assert reborn.result(again.job_id) == doc
