"""SimulationEnv: reset/step/result over scenario specs.

The headline acceptance test: a scripted-baseline episode on an
existing example scenario reproduces the exact per-job metrics of the
equivalent ``union-sim scenario`` run -- bit-identical JSON modulo the
episode's own ``env`` record.
"""

import json
import math
from pathlib import Path

import pytest

from repro.env import SimulationEnv
from repro.scenario import ScenarioError, load_scenario, parse_scenario, run_scenario
from repro.union.session import Observation

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

SPEC = {
    "name": "env-test",
    "topology": {"network": "1d", "scale": "mini"},
    "routing": "min",
    "placement": "rn",
    "seed": 7,
    "horizon": 0.01,
    "jobs": [
        {"app": "lammps", "nranks": 16},
        {"app": "milc", "nranks": 16, "arrival": 0.002},
    ],
    "traffic": [
        {"name": "bg", "pattern": "hotspot", "nranks": 16,
         "msg_bytes": 65536, "interval_s": 2e-5, "hot_ranks": 2},
    ],
}


def _env(**kwargs) -> SimulationEnv:
    return SimulationEnv(parse_scenario(dict(SPEC)), **kwargs)


def test_scripted_episode_bit_identical_to_scenario_run():
    """Acceptance criterion: episode result JSON == run_scenario JSON
    once the env's own record is removed, on a real example spec."""
    path = EXAMPLES / "dynamic_arrivals.toml"
    ref = run_scenario(load_scenario(path)).to_json_dict()
    env = SimulationEnv(load_scenario(path))
    env.reset()
    done = False
    while not done:
        _, _, done, _ = env.step()
    got = env.result().to_json_dict()
    record = got.pop("env")
    assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)
    assert record["policy"] == {"type": "scripted"}
    assert record["steps"] == len(record["step_log"])
    assert math.isfinite(record["total_reward"])


def test_spaces_and_defaults():
    env = _env()
    assert env.action_space.labels == ("keep", "scripted", "load-aware", "defer")
    n_routers = 72  # mini 1D dragonfly
    assert env.observation_space.shape == (8 + 2 * n_routers,)
    assert env.window == pytest.approx(0.01 / 8)
    assert env.reward_kind == "avg_latency"


def test_reset_returns_observation_and_reseeds():
    env = _env()
    obs = env.reset()
    assert isinstance(obs, Observation)
    assert obs.clock == 0.0
    assert env.observation_space.contains(obs.to_vector())
    # A seed override flows into the episode's result document.
    env2 = _env()
    env2.reset(seed=99)
    done = False
    while not done:
        _, _, done, _ = env2.step()
    assert env2.result().to_json_dict()["seed"] == 99


def test_step_protocol_and_reward_telescopes():
    env = _env()
    env.reset()
    total = 0.0
    rewards = []
    done = False
    while not done:
        obs, reward, done, info = env.step("keep")
        total += reward
        rewards.append(reward)
        assert math.isfinite(reward)
        assert info["action"] == "keep"
        assert info["policy"] == "scripted"
        assert "avg_latency" in info
    assert len(rewards) == 8
    assert obs.clock == pytest.approx(0.01)
    # The negative-delta reward telescopes: episode return is minus the
    # final cumulative cost.
    assert total == pytest.approx(-info["avg_latency"])
    assert total < 0  # traffic flowed, latency accrued


def test_step_before_reset_and_after_done_raise():
    env = _env()
    with pytest.raises(RuntimeError, match=r"reset\(\) before step\(\)"):
        env.step()
    env.reset()
    with pytest.raises(RuntimeError, match="not done"):
        env.result()
    done = False
    while not done:
        _, _, done, _ = env.step()
    with pytest.raises(RuntimeError, match="episode is done"):
        env.step()
    assert env.result() is not None


def test_invalid_action_rejected():
    env = _env()
    env.reset()
    with pytest.raises(ValueError, match="unknown action"):
        env.step("warp-speed")
    with pytest.raises(ValueError, match="outside"):
        env.step(17)


def test_policy_switch_action_takes_effect():
    env = _env()
    env.reset()
    _, _, _, info = env.step("load-aware")
    assert info["policy"] == "load-aware"
    _, _, _, info = env.step("keep")
    assert info["policy"] == "load-aware"  # keep keeps the switch
    _, _, _, info = env.step("scripted")
    assert info["policy"] == "scripted"


def test_defer_action_rejects_arrivals_in_window():
    env = _env()
    env.reset()
    env.step("defer")  # window 1: (0, 1.25ms] -- no arrivals land here
    obs, _, _, _ = env.step("defer")  # window 2 covers t=0.002
    assert obs.job_states["milc"] == "skipped"
    done = False
    while not done:
        _, _, done, _ = env.step()
    row = env.result().job("milc")
    assert not row.started
    assert "deferred by policy" in row.skip_reason


def test_load_aware_episode_changes_outcomes():
    def rollout(policy):
        env = _env(policy=policy)
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step()
        return env.result()

    scripted = rollout("scripted")
    aware = rollout("load-aware")
    assert (sorted(aware.outcome.app("milc").nodes)
            != sorted(scripted.outcome.app("milc").nodes))


def test_comm_time_reward_kind():
    env = _env(reward="comm_time")
    env.reset()
    total = 0.0
    done = False
    while not done:
        _, r, done, info = env.step()
        total += r
    assert total == pytest.approx(-info["comm_time"])
    assert math.isfinite(total)


def test_env_table_configures_environment():
    data = dict(SPEC)
    data["env"] = {"policy": "load-aware", "window": 0.002,
                   "reward": "comm_time"}
    env = SimulationEnv(parse_scenario(data))
    assert env.policy_table == {"type": "load-aware"}
    assert env.window == pytest.approx(0.002)
    assert env.reward_kind == "comm_time"
    # Constructor arguments override the table.
    env = SimulationEnv(parse_scenario(data), policy="scripted",
                        window=0.005, reward="avg_latency")
    assert env.policy_table == {"type": "scripted"}
    assert env.window == pytest.approx(0.005)
    assert env.reward_kind == "avg_latency"


def test_bad_env_arguments():
    with pytest.raises(ScenarioError, match="env.window: must be > 0"):
        _env(window=0.0)
    with pytest.raises(ScenarioError, match="env.window: one step window"):
        _env(window=0.02)  # the horizon is 0.01 s, as for an [env] table
    with pytest.raises(ScenarioError, match="env.reward: 'profit' is not one of"):
        _env(reward="profit")
    with pytest.raises(ScenarioError, match="unknown policy"):
        _env(policy="nope")


def test_early_exit_when_all_jobs_finish():
    """Without endless background traffic the episode ends as soon as
    every job is terminal, before the horizon."""
    data = {
        "name": "quick",
        "topology": {"network": "1d", "scale": "mini"},
        "seed": 3,
        "horizon": 5.0,
        "jobs": [{"app": "lammps", "nranks": 16}],
    }
    env = SimulationEnv(parse_scenario(data), window=0.01)
    env.reset()
    steps = 0
    done = False
    while not done:
        obs, _, done, _ = env.step()
        steps += 1
        assert steps < 500  # the episode must terminate early
    assert obs.clock < 5.0
    assert env.result().job("lammps").finished
