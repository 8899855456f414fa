"""The transport-free service surface: SubmitAPI + execute_spec."""

import copy
import json

import pytest

import repro.service.api as api_mod
from repro.scenario import ScenarioError, parse_scenario
from repro.scenario.runner import run_scenario
from repro.service import (
    JobState,
    JobStore,
    ServiceError,
    SubmitAPI,
    execute_spec,
)
from repro.service.cache import ResultCache, spec_digest

TINY = {
    "name": "tiny-api",
    "seed": 11,
    "horizon": 0.005,
    "placement": "rn",
    "topology": {"network": "1d"},
    "jobs": [{"app": "nn", "params": {"iters": 2}}],
}


def _mapping(extra=None):
    data = copy.deepcopy(TINY)
    if extra:
        data.update(copy.deepcopy(extra))
    return data


def _spec(extra=None):
    data = _mapping(extra)
    return parse_scenario(data, name=data["name"])


def test_execute_spec_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    doc, cached = execute_spec(_spec(), cache)
    assert not cached
    again, cached = execute_spec(_spec(), cache)
    assert cached
    assert again == doc
    assert doc == run_scenario(_spec()).to_json_dict()
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


def test_cache_hit_replays_rows_into_the_specs_jsonl_sink(tmp_path):
    """The harness-cache flaw fixed: a hit still produces the caller's
    row stream, honoring their own path and filter globs."""
    cache = ResultCache(tmp_path / "cache")
    live = tmp_path / "live.jsonl"
    execute_spec(_spec({"metrics": {"jsonl": str(live)}}), cache)
    replayed = tmp_path / "replayed.jsonl"
    _, cached = execute_spec(
        _spec({"metrics": {"jsonl": str(replayed),
                           "filter": ["mpi.job.*"]}}), cache)
    assert cached  # routing differences do not change the digest
    rows = [json.loads(line) for line in
            replayed.read_text().splitlines()[1:]]
    assert rows
    assert all(r["key"].startswith("mpi.job.") for r in rows)
    live_rows = [json.loads(line) for line in
                 live.read_text().splitlines()[1:]
                 if json.loads(line)["key"].startswith("mpi.job.")]
    assert rows == live_rows


def test_submit_status_result_lifecycle(tmp_path):
    api = SubmitAPI(tmp_path / "state")
    record = api.submit(_mapping())
    assert record.state is JobState.DONE
    assert not record.cached
    assert record.attempts == 1
    assert api.result(record.job_id) == run_scenario(_spec()).to_json_dict()
    header = json.loads(api.telemetry_jsonl(record.job_id).splitlines()[0])
    assert header["schema"] == "union-sim.telemetry/v1"
    # Same digest again: instant done straight from the cache.
    again = api.submit(_mapping())
    assert again.job_id != record.job_id
    assert again.state is JobState.DONE
    assert again.cached
    assert again.attempts == 0
    assert api.stats()["jobs"]["done"] == 2


def test_submissions_are_validated_through_the_real_parser(tmp_path):
    api = SubmitAPI(tmp_path / "state")
    with pytest.raises(ScenarioError):
        api.submit({"name": "broken"})  # no jobs
    with pytest.raises(ScenarioError, match="not a scenario mapping"):
        api.submit(["not", "a", "mapping"])


def test_unknown_job_and_unfinished_result_raise_service_errors(tmp_path):
    api = SubmitAPI(tmp_path / "state")
    with pytest.raises(ServiceError, match="no job"):
        api.status("job-999999")
    record = api.store.new_job("ab" * 32, "pending", _mapping())
    with pytest.raises(ServiceError, match="queued, not done"):
        api.result(record.job_id)


def test_failed_execution_is_journaled(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(api_mod, "run_scenario", boom)
    api = SubmitAPI(tmp_path / "state")
    record = api.submit(_mapping())
    assert record.state is JobState.FAILED
    assert "engine exploded" in record.error
    with pytest.raises(ServiceError, match="failed, not done"):
        api.result(record.job_id)


def test_two_stores_on_one_state_dir_never_share_a_job_id(tmp_path):
    """Each store scans for the highest id once, at init; the ids it
    mints later are claimed on disk, so a second store (another
    process on the same state directory) cannot overwrite a job."""
    first, second = JobStore(tmp_path), JobStore(tmp_path)
    a = first.new_job("ab" * 32, "a", _mapping())
    b = second.new_job("cd" * 32, "b", _mapping())
    c = first.new_job("ef" * 32, "c", _mapping())
    assert (a.job_id, b.job_id, c.job_id) == (
        "job-000001", "job-000002", "job-000003")
    assert [r.scenario for r in JobStore(tmp_path).list()] == ["a", "b", "c"]


def test_cancel_spares_terminal_jobs_and_kills_queued_ones(tmp_path):
    api = SubmitAPI(tmp_path / "state")
    done = api.submit(_mapping())
    assert api.cancel(done.job_id).state is JobState.DONE
    queued = api.store.new_job(spec_digest(_spec()), "queued", _mapping())
    assert api.cancel(queued.job_id).state is JobState.CANCELLED


def test_wait_times_out_on_a_stuck_job(tmp_path):
    api = SubmitAPI(tmp_path / "state")
    stuck = api.store.new_job("cd" * 32, "stuck", _mapping())
    with pytest.raises(ServiceError, match="still queued"):
        api.wait(stuck.job_id, timeout=0.05, poll=0.01)
