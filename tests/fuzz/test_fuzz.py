"""The fuzz harness: invariants, sweeps, shrinking, mutation drill."""

import tomllib

import pytest

import repro.fuzz.invariants as invariants_mod
from repro.fuzz import (
    INVARIANTS,
    FuzzContext,
    check_mapping,
    fuzz_seeds,
    render_fuzz_report,
    shrink_mapping,
)
from repro.generate import generate_mapping
from repro.scenario import ScenarioError, parse_scenario


def test_invariant_roster_is_the_documented_six():
    assert list(INVARIANTS) == [
        "conservation", "no_stuck_jobs", "determinism", "parity",
        "stepping", "monotone_clocks",
    ]


def test_three_seed_fuzz_is_clean_and_deterministic():
    """Tier-1 anchor: a small sweep passes every invariant, twice."""
    first = fuzz_seeds("random-mix", seeds=3, parity_stride=3, shrink=False)
    assert first.ok, render_fuzz_report(first)
    assert [c.parity_checked for c in first.cases] == [True, False, False]
    again = fuzz_seeds("random-mix", seeds=3, parity_stride=3, shrink=False)
    assert first.to_json_dict() == again.to_json_dict()


def test_check_mapping_flags_a_crashing_invariant_not_a_bad_spec():
    mapping = generate_mapping("random-mix", 1)

    def boom(ctx):
        raise RuntimeError("simulated harness crash")

    violations = check_mapping(mapping, invariants={"boom": boom})
    assert violations == ["boom: raised RuntimeError: simulated harness crash"]
    with pytest.raises(ScenarioError):
        check_mapping({"name": "broken"})  # no jobs: the *spec* is invalid


def test_mutation_drill_shrinks_to_a_minimal_repro(tmp_path, monkeypatch):
    """Plant a failing invariant; the harness must report it and write a
    shrunken TOML repro that still fails and still parses."""

    def planted(ctx):
        if ctx.mapping.get("traffic"):
            return ["planted failure: traffic present"]
        return []

    monkeypatch.setitem(invariants_mod.INVARIANTS, "conservation", planted)
    generator = {"type": "random-mix", "faults": 2, "traffic": 2, "jobs": 2}
    report = fuzz_seeds(generator, seeds=1, parity_stride=0,
                        repro_dir=tmp_path)
    assert not report.ok
    (case,) = report.failures
    assert any("planted failure" in v for v in case.violations)
    repro_path = tmp_path / f"repro-{case.name}.toml"
    assert str(repro_path) == report.repros[case.seed]
    small = tomllib.loads(repro_path.read_text())
    # Shrunk: the faults are gone, one job and one injector remain.
    assert "faults" not in small and "storage" not in small
    assert len(small["jobs"]) == 1
    assert len(small["traffic"]) == 1
    parse_scenario(dict(small), name="repro")  # still a valid scenario
    assert check_mapping(small)  # and it still fails


def test_shrinker_rejects_candidates_that_no_longer_parse():
    """Dropping [storage] while a storage-slow fault remains would be an
    invalid spec; the shrinker must keep the pair together."""

    mapping = generate_mapping({"type": "random-mix", "faults": 1}, 0)
    mapping["faults"] = [{"kind": "storage-slow", "start": 0.0,
                          "duration": 0.001, "factor": 4.0}]
    mapping["storage"] = {"servers": 1}

    always = {"fail": lambda ctx: ["always"]}
    import repro.fuzz.harness as harness
    orig = dict(harness.INVARIANTS)
    harness.INVARIANTS.clear()
    harness.INVARIANTS.update(always)
    try:
        small = shrink_mapping(mapping)
    finally:
        harness.INVARIANTS.clear()
        harness.INVARIANTS.update(orig)
    # The invariant fails unconditionally, so everything droppable went;
    # what remains must still be a parseable scenario.
    parse_scenario(dict(small), name="t")
    assert len(small["jobs"]) == 1
    assert "traffic" not in small
    assert "faults" not in small and "storage" not in small


def test_fuzz_context_memoizes_baseline_runs():
    ctx = FuzzContext(generate_mapping("random-mix", 2))
    assert ctx.run() is ctx.run()
    assert ctx.run() is not ctx.run_fresh()


def test_invariants_hold_on_a_faulted_generated_scenario():
    mapping = generate_mapping({"type": "random-mix", "faults": 3}, 7)
    assert check_mapping(mapping, parity=True) == []


def test_stepping_invariant_is_gated_on_parity_sampling():
    from repro.fuzz.invariants import check_stepping

    mapping = generate_mapping("random-mix", 4)
    assert check_stepping(FuzzContext(mapping, parity=False)) == []
    assert check_stepping(FuzzContext(mapping, parity=True)) == []


def test_stepping_invariant_catches_a_divergent_stepped_run(monkeypatch):
    from repro.scenario.runner import reduce_scenario_result

    mapping = generate_mapping("random-mix", 4)

    def planted(spec, outcome):
        result = reduce_scenario_result(spec, outcome)
        result.end_time = result.end_time + 1.0  # corrupt the stepped run
        return result

    monkeypatch.setattr(invariants_mod, "reduce_scenario_result", planted)
    violations = invariants_mod.check_stepping(FuzzContext(mapping, parity=True))
    assert violations == ["stepping to mid-horizon and on produced result "
                          "JSON different from the one-shot run"]


def test_crashed_worker_becomes_a_failing_case():
    from repro.fuzz.harness import _crashed_case

    case = _crashed_case(("random-mix", 9, False))
    assert case["seed"] == 9
    assert case["mapping"] == {}
    assert any("worker process died" in v for v in case["violations"])
