"""Generator property tests: every emitted spec survives the real
parser and round-trips through TOML bit-identically."""

import tomllib

import pytest

from repro.generate import generate_mapping, generate_scenario
from repro.registry import RegistryError, available_generators, build_generator
from repro.scenario import parse_scenario, to_toml

GENERATORS = ("random-mix", "diurnal", "hotspot-blend")


def test_roster_matches_the_registry():
    assert set(GENERATORS) == set(available_generators())


@pytest.mark.parametrize("generator", [
    "random-mix",
    {"type": "random-mix", "jobs": 5, "traffic": 2, "faults": 3},
    {"type": "random-mix", "fabric": "fattree", "faults": 2},
    {"type": "random-mix", "fabric": "torus", "faults": 2},
    {"type": "diurnal", "arrivals": 40},
    "hotspot-blend",
    {"type": "hotspot-blend", "injectors": 5},
])
@pytest.mark.parametrize("seed", range(0, 40, 7))
def test_generated_specs_round_trip_bit_identically(generator, seed):
    spec = generate_scenario(generator, seed)
    text = to_toml(spec)
    again = parse_scenario(tomllib.loads(text), name=spec.name)
    assert again == spec
    assert to_toml(again) == text


def test_generation_is_deterministic_per_seed():
    a = generate_mapping({"type": "random-mix", "faults": 2}, 13)
    b = generate_mapping({"type": "random-mix", "faults": 2}, 13)
    assert a == b
    assert a != generate_mapping({"type": "random-mix", "faults": 2}, 14)


def test_diurnal_emits_thousands_of_arrivals_that_still_parse():
    spec = generate_scenario("diurnal", 3)
    assert len(spec.traffic) == 2000
    arrivals = [t.arrival for t in spec.traffic]
    assert all(0.0 <= t <= spec.horizon for t in arrivals)
    assert len(set(arrivals)) > 1900  # a process, not a pile-up
    text = to_toml(spec)
    assert to_toml(parse_scenario(tomllib.loads(text), name=spec.name)) == text


def test_first_job_anchors_the_timeline():
    for seed in range(5):
        spec = generate_scenario("random-mix", seed)
        assert spec.jobs[0].arrival == 0.0
        assert all(j.arrival >= 0.0 for j in spec.jobs)


def test_sprinkled_faults_are_always_valid_for_the_topology():
    """Down-kind faults demand adaptive routing and linked router pairs;
    the generator must never emit a spec the parser (or the fault
    plane) rejects."""
    from repro.scenario.runner import build_manager

    seen_faults = 0
    for seed in range(12):
        spec = generate_scenario({"type": "random-mix", "faults": 3}, seed)
        seen_faults += len(spec.faults)
        assert spec.routing == "adp"
        # The fault plane's range/link checks run at session build.
        build_manager(spec).session().build()
    assert seen_faults == 36


def test_fabric_param_emits_explicit_topology_tables():
    """random-mix can retarget fat-tree/torus: an explicit [topology]
    table, fabric-valid routing/placement, storage-slow-only faults
    (neither fabric satisfies the down-fault capability checks)."""
    from repro.scenario.runner import build_manager

    for fabric, routing in (("fattree", "adaptive"), ("torus", "dor")):
        spec = generate_scenario(
            {"type": "random-mix", "fabric": fabric, "faults": 3}, 7)
        assert spec.name == f"random-mix-{fabric}-7"
        assert spec.topology["type"] == fabric
        assert spec.routing == routing
        assert all(f.kind == "storage-slow" for f in spec.faults)
        build_manager(spec).session().build()


def test_default_fabric_output_is_unchanged():
    """fabric="dragonfly" (the default) must stay byte-identical to the
    pre-fabric generator output: golden seeds keep their meaning."""
    explicit = generate_mapping(
        {"type": "random-mix", "fabric": "dragonfly"}, 13)
    default = generate_mapping("random-mix", 13)
    assert explicit == default
    assert "topology" not in default
    assert default["name"] == "random-mix-13"


def test_unknown_generator_and_params_fail_loudly():
    with pytest.raises(RegistryError, match="unknown generator"):
        build_generator("tornado", 0)
    with pytest.raises(RegistryError, match="jobs"):
        build_generator({"type": "random-mix", "jobs": 0}, 0)
    with pytest.raises(RegistryError, match="wibble"):
        build_generator({"type": "diurnal", "wibble": 3}, 0)
    with pytest.raises(RegistryError, match="fabric"):
        build_generator({"type": "random-mix", "fabric": "hypercube"}, 0)


@pytest.mark.parametrize("generator, key, value", [
    ("diurnal", "period", 0.0),  # was a bare ZeroDivisionError
    ("diurnal", "horizon", float("nan")),
    ("random-mix", "horizon", 0.0),
    ("hotspot-blend", "horizon", float("inf")),
])
def test_generator_times_must_be_positive_and_finite(generator, key, value):
    with pytest.raises(RegistryError, match=rf"^generator\.{key}: "):
        build_generator({"type": generator, key: value}, 0)
