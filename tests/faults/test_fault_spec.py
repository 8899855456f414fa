"""[[faults]] / [storage] parsing and validation."""

import pytest

from repro.scenario import (
    DOWN_FAULT_KINDS,
    FAULT_KINDS,
    FaultEntry,
    ScenarioError,
    StorageEntry,
    entry_dict,
    parse_scenario,
    to_toml,
)

BASE = {
    "seed": 5,
    "horizon": 0.004,
    "routing": "adp",
    "jobs": [{"app": "nn", "params": {"iters": 2}}],
}


def _spec(**overrides):
    data = dict(BASE)
    data.update(overrides)
    return parse_scenario(data, name="t")


def _fault(**overrides):
    entry = {"kind": "link-degrade", "start": 0.001, "duration": 0.001,
             "router": 0, "router_b": 1}
    entry.update(overrides)
    return entry


def test_fault_kinds_roster():
    assert FAULT_KINDS == ("link-degrade", "link-down", "router-down",
                           "storage-slow")
    assert set(DOWN_FAULT_KINDS) <= set(FAULT_KINDS)


def test_minimal_fault_parses_with_defaults():
    spec = _spec(faults=[_fault()])
    (f,) = spec.faults
    assert isinstance(f, FaultEntry)
    assert f.name == "link-degrade-0"
    assert f.factor == pytest.approx(0.1)
    assert spec.to_dict()["faults"] == [entry_dict(f)]


def test_fault_round_trips_through_toml():
    spec = _spec(faults=[_fault(name="wobble", factor=0.25),
                         _fault(kind="router-down", router=3, router_b=None)],
                 storage={"servers": 2})
    assert isinstance(spec.storage, StorageEntry)
    text = to_toml(spec)
    import tomllib
    again = parse_scenario(tomllib.loads(text), name="t")
    assert again == spec
    assert to_toml(again) == text


@pytest.mark.parametrize("bad, match", [
    ({"kind": "meteor"}, "kind"),
    ({"start": -1.0}, "start"),
    ({"duration": 0.0}, "duration"),
    ({"router_b": 0}, "differ"),
    ({"factor": 0.0}, "factor"),
    ({"factor": 1.5}, "factor"),
    ({"kind": "router-down", "router_b": 1}, "router_b"),
    ({"kind": "storage-slow", "router": 0}, "router"),
    ({"kind": "storage-slow", "factor": 0.5, "router": None,
      "router_b": None}, "factor"),
    ({"kind": "link-down", "factor": 0.5}, "factor"),
])
def test_invalid_fault_entries_are_rejected(bad, match):
    entry = _fault()
    entry.update(bad)
    entry = {k: v for k, v in entry.items() if v is not None}
    with pytest.raises(ScenarioError, match=match):
        _spec(faults=[entry])


def test_storage_slow_requires_a_storage_table():
    entry = {"kind": "storage-slow", "start": 0.0, "duration": 0.001}
    with pytest.raises(ScenarioError, match=r"\[storage\]"):
        _spec(faults=[entry])
    spec = _spec(faults=[entry], storage={"servers": 1})
    assert spec.faults[0].factor == pytest.approx(10.0)
    assert spec.storage.servers == 1


def test_down_faults_demand_adaptive_routing():
    with pytest.raises(ScenarioError, match="adaptive"):
        _spec(routing="min", faults=[_fault(kind="link-down")])
    # A non-adaptive per-job override is just as fatal...
    data = dict(BASE, faults=[_fault(kind="link-down")])
    data["jobs"] = [{"app": "nn", "routing": "min"}]
    with pytest.raises(ScenarioError, match="adaptive"):
        parse_scenario(data, name="t")
    # ...while degradation alone is allowed under minimal routing.
    spec = _spec(routing="min", faults=[_fault()])
    assert spec.faults[0].kind == "link-degrade"


def test_fault_names_must_not_collide_after_metric_folding():
    with pytest.raises(ScenarioError, match="collide"):
        _spec(faults=[_fault(name="a.b"), _fault(name="a b", router=2)])
