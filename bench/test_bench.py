"""Tests of the benchmark itself, at ``--quick`` sizes.

Run with ``python -m pytest bench -q`` (not part of tier-1: the repo's
``testpaths`` is ``tests``).  The whole file takes well under a minute.
"""

from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys

import pytest

from bench import agree, runner, workloads

CONTRACT = runner.load_contract()
NAMES = [w["name"] for w in CONTRACT["workloads"]]
STORMS = ("fabric_storm", "fabric_storm_yawns", "fabric_storm_accel")


@pytest.fixture(autouse=True, scope="module")
def one_setup_repetition():
    """One cold start per run keeps the suite short; the medians over
    repetitions are the runner's business, not what is tested here."""
    saved = runner.SETUP_REPS
    runner.SETUP_REPS = 1
    yield
    runner.SETUP_REPS = saved


def run(name: str, trace: bool, seed: int = runner.DEFAULT_SEED, **kw):
    out = io.StringIO()
    result = runner.run_workload(name, seed, 0.0, trace, size="quick",
                                 out=out, **kw)
    return result, out.getvalue()


@pytest.fixture(scope="module")
def traced():
    """Every workload traced twice on the default seed."""
    return {name: (run(name, True), run(name, True)) for name in NAMES}


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    result, text = run(name, False, reps=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for m in CONTRACT["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]
        line = next(ln for ln in text.splitlines() if ln.startswith(m["name"] + " "))
        assert name in line and line.endswith(m["unit"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_per_layer_metric(traced, name):
    (result, text), _ = traced[name]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    printed = {ln.split()[0] for ln in text.splitlines() if not ln.startswith("#")}
    assert printed == set(result["metrics"])
    got = values(result)
    assert got["pdes.events_committed"] > 0
    assert got["trace.spans"] > 0 and got["trace.overhead_ratio"] > 0
    assert got["scenario.digest_drift"] == 0


def test_every_per_layer_metric_is_measured_by_some_workload(traced):
    for m in CONTRACT["per_layer"]:
        if m["name"] in ("scenario.digest_drift", "service.hit_p90_ms"):
            continue  # 0 when nothing drifted; p90 needs the full 160 hits
        assert any(values(traced[n][0][0])[m["name"]] for n in NAMES), m["name"]


@pytest.mark.parametrize("name", NAMES)
def test_exact_metrics_repeat_bit_for_bit(traced, name):
    (first, _), (second, _) = traced[name]
    for m in CONTRACT["per_layer"]:
        if runner.is_exact(m["name"], m["unit"]):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


def test_layers_are_absent_where_the_workload_bypasses_them(traced):
    phold = values(traced["phold"][0][0])
    assert phold["pdes.op_share"] > 0.9
    assert phold["network.run_s"] == phold["mpi.run_s"] == phold["union.step_s"] == 0
    for name in STORMS:
        storm = values(traced[name][0][0])
        assert storm["network.run_s"] > 0 and storm["mpi.run_s"] == 0
    assert values(traced["mpi_small_allreduce"][0][0])["mpi.run_s"] > 0
    assert values(traced["fabric_storm_yawns"][0][0])["parallel.windows"] > 0
    assert values(traced["fabric_storm_accel"][0][0])["accel.compiled"] == 1
    assert values(traced["service_submit"][0][0])["service.hits"] > 0


def test_the_three_storm_engines_give_one_digest(traced):
    digests = {values(traced[n][0][0])["scenario.result_digest"] for n in STORMS}
    assert len(digests) == 1


def test_another_seed_gives_another_digest(traced):
    other, _ = run("phold", True, seed=runner.DEFAULT_SEED + 1)
    assert (values(other)["scenario.result_digest"]
            != values(traced["phold"][0][0])["scenario.result_digest"])


def test_a_corrupted_expected_digest_is_reported_as_drift():
    expected = json.loads(runner.EXPECTED_PATH.read_text())
    expected["quick"]["phold"]["scenario.result_digest"] += 1
    result, text = run("phold", True, expected=expected)
    assert values(result)["scenario.digest_drift"] == 1
    assert result["correct"], "drift is not a failed op"
    assert "drift" in text


def test_expected_json_pins_every_workload_at_both_sizes():
    expected = json.loads(runner.EXPECTED_PATH.read_text())
    assert expected["seed"] == runner.DEFAULT_SEED
    for size in ("full", "quick"):
        assert sorted(expected[size]) == sorted(NAMES)
        storms = {expected[size][n]["scenario.result_digest"] for n in STORMS}
        assert len(storms) == 1


def test_a_failing_check_counts_as_a_failed_op(monkeypatch):
    real = workloads.Phold.op
    calls = []

    def flaky(self, tr):
        calls.append(1)
        if len(calls) == 2:
            raise workloads.CheckFailed("forced")
        return real(self, tr)

    monkeypatch.setattr(workloads.Phold, "op", flaky)
    result, text = run("phold", False, reps=3)
    assert result["failed"] == 1 and result["attempted"] == 3
    assert result["correct"] is False
    assert "forced" in text


def test_a_wrong_result_fails_the_warm_up_check(monkeypatch):
    monkeypatch.setattr(workloads.models, "phold_reference",
                        lambda seed, horizon: [])
    result, text = run("phold", False, reps=1)
    assert result["failed"] == 1 and not result["correct"]
    assert "heapq reference" in text


def test_nothing_is_left_behind(traced):
    assert runner.live_descendants(os.getpid()) == []
    assert not list(runner.OUT_DIR.glob("run-*"))
    assert (runner.OUT_DIR / "trace-hybrid_mix.json").is_file()
    doc = json.loads((runner.OUT_DIR / "trace-phold.json").read_text())
    assert {"name", "start_ns", "end_ns", "parent", "op"} == set(doc["spans"][0])


def test_the_leak_guard_sees_a_live_child():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert child.pid in runner.live_descendants(os.getpid())
        with pytest.raises(runner.BenchError, match="left running"):
            runner.leak_guard()
    finally:
        child.kill()
        child.wait()
    assert child.pid not in runner.live_descendants(os.getpid())


def test_self_time_is_a_span_minus_its_children():
    from bench.trace import Tracer

    tr = Tracer()
    tr.op = 1
    tr.spans = [["op", 0, 100, -1, 1], ["a.x", 10, 60, 0, 1],
                ["b.y", 20, 50, 1, 1], ["a.z", 70, 80, 0, 1]]
    layers = tr.self_s_by_layer(1)
    assert layers == pytest.approx({"bench": 40e-9, "a": 30e-9, "b": 30e-9})
    assert tr.total_s("a.x", 1) == pytest.approx(50e-9)
    assert tr.ops() == [1]


# -- agree ---------------------------------------------------------------------


def result_set(scale: float = 1.0, spread: float = 0.01) -> dict:
    out = {"workloads": {}}
    for name in NAMES:
        out["workloads"][name] = {
            "end_to_end": {
                m["name"]: {"median": 10.0 * (scale if m["name"] == "op_wall_s" else 1),
                            "spread": spread, "unit": m["unit"]}
                for m in CONTRACT["end_to_end"]},
            "per_layer": {m["name"]: {"value": 7, "unit": m["unit"]}
                          for m in CONTRACT["per_layer"]},
            "attempted": 10, "failed": 0}
    return out


def verdicts(a: dict, b: dict) -> tuple[int, str]:
    out = io.StringIO()
    return agree.compare(a, b, CONTRACT, out=out), out.getvalue()


def test_agree_accepts_equal_sets():
    differ, text = verdicts(result_set(), result_set())
    assert differ == 0 and "differ" not in text and "unresolved" not in text


def test_agree_flags_a_median_beyond_the_bound():
    differ, text = verdicts(result_set(), result_set(scale=1.5))
    assert differ == len(NAMES)
    assert text.count("differ") == len(NAMES)


def test_agree_reports_a_wide_spread_as_unresolved():
    differ, text = verdicts(result_set(), result_set(scale=1.5, spread=0.3))
    assert differ == 0
    assert text.count("unresolved") == len(NAMES) * len(CONTRACT["end_to_end"])


def test_agree_requires_exact_metrics_to_be_identical():
    moved = result_set()
    moved["workloads"]["phold"]["per_layer"]["pdes.events_committed"]["value"] = 8
    inexact = copy.deepcopy(moved)
    inexact["workloads"]["phold"]["per_layer"]["pdes.run_s"]["value"] = 8
    differ, text = verdicts(result_set(), inexact)
    assert differ == 1 and "pdes.events_committed" in text
    assert "pdes.run_s" not in text
