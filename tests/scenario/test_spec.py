"""Scenario spec parsing: round-trips and validation-error messages."""

import json

import pytest

from repro.scenario import ScenarioError, load_scenario, parse_scenario

GOOD = {
    "name": "demo",
    "topology": {"network": "1d", "scale": "mini"},
    "routing": "min",
    "placement": "rn",
    "seed": 9,
    "horizon": 0.02,
    "jobs": [
        {"app": "nn"},
        {"name": "late", "app": "milc", "arrival": 0.005,
         "routing": "adp", "placement": "rr", "params": {"iters": 4}},
    ],
    "traffic": [
        {"name": "bg", "pattern": "hotspot", "nranks": 16,
         "msg_bytes": 2048, "interval_s": 0.0005, "hot_ranks": 2},
    ],
}


def test_parse_good_spec():
    spec = parse_scenario(GOOD)
    assert spec.name == "demo"
    assert spec.routing == "min" and spec.placement == "rn"
    assert [j.name for j in spec.jobs] == ["nn", "late"]
    late = spec.jobs[1]
    assert late.arrival == 0.005
    assert late.routing == "adp" and late.placement == "rr"
    assert late.params == {"iters": 4}
    (bg,) = spec.traffic
    assert bg.pattern == "hotspot" and bg.hot_ranks == 2 and bg.iters == 0


def test_dict_round_trip():
    spec = parse_scenario(GOOD)
    again = parse_scenario(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    assert [j.to_dict() for j in again.jobs] == [j.to_dict() for j in spec.jobs]
    assert [t.to_dict() for t in again.traffic] == [t.to_dict() for t in spec.traffic]


def test_defaults_fill_in():
    spec = parse_scenario({"jobs": [{"app": "nn"}]})
    assert spec.network == "1d" and spec.scale == "mini"
    assert spec.routing == "adp" and spec.placement == "rg"
    assert spec.horizon == pytest.approx(0.05)  # default_horizon("mini")
    assert spec.jobs[0].name == "nn"  # job name defaults to the app name
    assert spec.jobs[0].nranks is None  # resolved from the catalog at build time


def test_toml_file_round_trip(tmp_path):
    p = tmp_path / "demo.toml"
    p.write_text(
        'name = "from-toml"\n'
        'placement = "rr"\n'
        "horizon = 0.01\n"
        "[topology]\n"
        'network = "2d"\n'
        "[[jobs]]\n"
        'app = "lammps"\n'
        "[[traffic]]\n"
        'pattern = "uniform"\n'
    )
    spec = load_scenario(p)
    assert spec.name == "from-toml"
    assert spec.network == "2d"
    assert spec.base_dir == tmp_path
    assert spec.traffic[0].name == "uniform-0"


def test_json_file_loads(tmp_path):
    p = tmp_path / "demo.json"
    p.write_text(json.dumps(GOOD))
    spec = load_scenario(p)
    assert spec.name == "demo"


def test_round_trip_preserves_base_dir(tmp_path):
    # A loaded spec with a relative source must stay runnable after
    # to_dict() -> parse_scenario() (base_dir survives the round trip).
    p = tmp_path / "dsl.toml"
    p.write_text('[[jobs]]\nname = "x"\nsource = "prog.ncptl"\nnranks = 2\n')
    spec = load_scenario(p)
    again = parse_scenario(spec.to_dict())
    assert again.base_dir == tmp_path
    assert again.to_dict() == spec.to_dict()


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.update(jobs=[]), "at least one"),
        (lambda d: d.update(jobs=[{"app": "nope"}]), "unknown application 'nope'"),
        (lambda d: d.update(jobs=[{"app": "nn", "nranks": 0}]), "nranks: must be >= 1"),
        (lambda d: d.update(jobs=[{"app": "nn", "banana": 1}]), "unknown key 'banana'"),
        (lambda d: d.update(jobs=[{"app": "nn", "source": "x.ncptl"}]), "exactly one"),
        (lambda d: d.update(jobs=[{"source": "x.ncptl"}]), "required for 'source' jobs"),
        (lambda d: d.update(jobs=[{"app": "nn", "arrival": -1}]), "arrival: must be >= 0"),
        (lambda d: d.update(jobs=[{"app": "nn"}, {"app": "nn"}]), "duplicate"),
        (lambda d: d.update(routing="turbo"), "'turbo' is not one of"),
        (lambda d: d.update(placement="best"), "'best' is not one of"),
        (lambda d: d.update(topology={"network": "3d"}), "'3d' is not one of"),
        (lambda d: d.update(topology={"network": "1d", "size": 4}), "unknown key 'size'"),
        (lambda d: d.update(traffic=[{"pattern": "storm"}]), "'storm' is not one of"),
        (lambda d: d.update(traffic=[{"hot_ranks": 0}]), "hot_ranks: must be >= 1"),
        (lambda d: d.update(traffic=[{"interval_s": 0.0}]),
         "needs interval_s > 0"),  # endless injector at interval 0 would hang
        (lambda d: d.update(traffic=[{"nranks": 1}]),
         "nranks: must be >= 2"),  # a lone injector rank has no peer
        (lambda d: d.update(traffic=[{"name": "x"}, {"name": "x"}]),
         r"traffic\[1\].name: duplicate"),
        (lambda d: d.update(horizon=0), "must be > 0"),
        (lambda d: d.update(seed="one"), "expected an integer"),
        (lambda d: d.update(seed=-1), "seed: must be >= 0"),  # RNG wants uint64
    ],
)
def test_validation_errors_name_the_key(mutate, match):
    data = {"jobs": [{"app": "nn"}]}
    mutate(data)
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(data)


NAN = float("nan")


@pytest.mark.parametrize("text, data, where", [
    ('horizon = nan\n[[jobs]]\napp = "nn"\n',
     {"horizon": NAN, "jobs": [{"app": "nn"}]}, "horizon"),
    ('[[jobs]]\napp = "nn"\narrival = nan\n',
     {"jobs": [{"app": "nn", "arrival": NAN}]}, r"jobs\[0\]\.arrival"),
])
def test_nan_is_rejected_with_its_key_path(tmp_path, text, data, where):
    # nan < minimum is false: without its own check a nan horizon or
    # arrival would parse and run "ok"
    p = tmp_path / "nan.toml"
    p.write_text(text)
    match = rf"{where}: expected a number, got nan"
    with pytest.raises(ScenarioError, match=match):
        load_scenario(p)
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(data)


def test_zero_interval_burst_with_finite_iters_is_allowed():
    spec = parse_scenario({"jobs": [{"app": "nn"}],
                           "traffic": [{"interval_s": 0.0, "iters": 5}]})
    assert spec.traffic[0].iters == 5


def test_error_paths_include_entry_index():
    with pytest.raises(ScenarioError, match=r"jobs\[1\]"):
        parse_scenario({"jobs": [{"app": "nn"}, {"app": "milc", "nranks": -3}]})
    with pytest.raises(ScenarioError, match=r"traffic\[0\]"):
        parse_scenario({"jobs": [{"app": "nn"}], "traffic": [{"nranks": 0}]})


def test_load_errors(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "missing.toml")
    p = tmp_path / "spec.yaml"
    p.write_text("jobs: []")
    with pytest.raises(ScenarioError, match="unsupported spec format"):
        load_scenario(p)
    p = tmp_path / "broken.toml"
    p.write_text("name = [unclosed")
    with pytest.raises(ScenarioError, match="not valid TOML"):
        load_scenario(p)
    p = tmp_path / "broken.json"
    p.write_text("{")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(p)
    p = tmp_path / "bad.toml"
    p.write_text("[[jobs]]\nbanana = 1\n")
    with pytest.raises(ScenarioError, match=r"bad\.toml.*banana"):
        load_scenario(p)


# -- [engine] table ----------------------------------------------------------

def test_engine_table_parses_and_round_trips():
    data = dict(GOOD)
    data["engine"] = {"type": "conservative", "partitions": 3}
    spec = parse_scenario(data)
    assert spec.engine == {"type": "conservative", "partitions": 3}
    again = parse_scenario(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    assert again.engine == spec.engine


def test_engine_table_canonicalizes_aliases_and_keeps_sparse():
    data = dict(GOOD)
    data["engine"] = {"type": "yawns"}
    spec = parse_scenario(data)
    # Canonical name, and only the explicitly given parameters (the
    # registry default for partitions fills in at build time).
    assert spec.engine == {"type": "conservative"}


def test_omitted_engine_table_stays_none():
    spec = parse_scenario(GOOD)
    assert spec.engine is None
    assert "engine" not in spec.to_dict()


@pytest.mark.parametrize("table, match", [
    ({"partitions": 2}, "engine.type"),
    ({"type": "warp9"}, "unknown engine"),
    ({"type": "conservative", "partitions": 0}, "must be >= 1"),
    ({"type": "conservative", "partitions": "many"}, "expected an integer"),
    ({"type": "accel-conservative", "partitions": True},
     "expected an integer, got True"),
    ({"type": "sequential", "partitions": 2}, "unknown parameter"),
    ({"type": "conservative", "window": 5}, "unknown parameter"),
])
def test_engine_table_validation_errors(table, match):
    data = dict(GOOD)
    data["engine"] = table
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(data)


def test_engine_partition_plan_is_checked_at_build_time():
    from repro.registry import RegistryError
    from repro.scenario import run_scenario

    data = dict(GOOD)
    data["engine"] = {"type": "conservative", "partitions": 12}
    spec = parse_scenario(data)  # parses: the plan needs the topology
    with pytest.raises(RegistryError, match="engine: cannot split"):
        run_scenario(spec)


def test_env_table_parses_and_round_trips():
    data = dict(GOOD)
    data["env"] = {"policy": {"type": "admission", "min_free": 4},
                   "window": 0.002, "reward": "comm_time"}
    spec = parse_scenario(data)
    assert spec.env is not None
    assert spec.env.policy == {"type": "admission", "min_free": 4}
    assert spec.env.window == pytest.approx(0.002)
    assert spec.env.reward == "comm_time"
    again = parse_scenario(spec.to_dict())
    assert again.env == spec.env


def test_env_table_defaults_and_alias_canonicalization():
    data = dict(GOOD)
    data["env"] = {"policy": "la"}  # alias -> canonical name
    spec = parse_scenario(data)
    assert spec.env.policy == {"type": "load-aware"}
    assert spec.env.window is None
    assert spec.env.reward == "avg_latency"
    # Sparse round trip: only the non-default key survives.
    assert spec.to_dict()["env"] == {"policy": {"type": "load-aware"}}


def test_omitted_env_table_stays_none():
    spec = parse_scenario(GOOD)
    assert spec.env is None
    assert "env" not in spec.to_dict()


@pytest.mark.parametrize("table, match", [
    ({"policy": "warp9"}, "unknown policy"),
    ({"policy": {"min_free": 1}}, "env.policy.type"),
    ({"policy": {"type": "admission", "bogus": 1}}, "unknown parameter"),
    ({"policy": {"type": "admission", "min_free": -1}}, "must be >= 1|>= 0"),
    ({"reward": "profit"}, "not one of"),
    ({"window": 0}, "must be > 0"),
    ({"window": 1.0}, "exceeds the horizon"),
    ({"cadence": 3}, "unknown key"),
])
def test_env_table_validation_errors(table, match):
    data = dict(GOOD)
    data["env"] = table
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(data)
