"""CLI smoke tests via main(argv)."""

import pytest

from repro.cli import main
from repro.workloads.sources import PINGPONG_SOURCE


@pytest.fixture()
def pingpong_file(tmp_path):
    p = tmp_path / "pingpong.ncptl"
    p.write_text(PINGPONG_SOURCE)
    return str(p)


def test_systems(capsys):
    assert main(["systems", "--scale", "paper"]) == 0
    out = capsys.readouterr().out
    assert "8448" in out
    assert "1D dragonfly" in out and "2D dragonfly" in out


def test_translate(capsys, pingpong_file):
    assert main(["translate", pingpong_file, "--name", "pp"]) == 0
    out = capsys.readouterr().out
    assert "union_main" in out
    assert "UNION_MPI_Send" in out


def test_validate_passes(capsys, pingpong_file):
    assert main(["validate", pingpong_file, "--ntasks", "4", "--name", "pp"]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out
    assert "MPI_Send" in out


def test_run(capsys):
    assert main([
        "run", "--network", "1d", "--workload", "baseline:nn",
        "--placement", "rr", "--routing", "min",
    ]) == 0
    out = capsys.readouterr().out
    assert "nn" in out
    assert "link loads" in out


def test_run_workload(capsys):
    assert main(["run", "--workload", "workload2", "--placement", "rg", "--routing", "adp"]) == 0
    out = capsys.readouterr().out
    for app in ("cosmoflow", "alexnet", "lammps", "milc", "nn"):
        assert app in out


def test_simulate(capsys, pingpong_file):
    assert main(["simulate", pingpong_file, "--ntasks", "2", "--name", "pp"]) == 0
    out = capsys.readouterr().out
    assert "finished" in out and "yes" in out
    assert "max comm time" in out


def test_simulate_with_storage(capsys, tmp_path):
    p = tmp_path / "io.ncptl"
    p.write_text(
        'Require language version "1.5".\n'
        "For 2 repetitions { all tasks t reads a 65536 byte file from server t }\n"
    )
    assert main(["simulate", str(p), "--ntasks", "4", "--storage-servers", "2"]) == 0
    out = capsys.readouterr().out
    assert "I/O: 8 ops" in out
    assert "read 512.00 KB" in out


def test_simulate_io_without_storage_fails(tmp_path):
    p = tmp_path / "io.ncptl"
    p.write_text(
        'Require language version "1.5".\n'
        "task 0 writes a 1 megabyte file\n"
    )
    with pytest.raises(RuntimeError, match="no storage"):
        main(["simulate", str(p), "--ntasks", "2"])


SCENARIO_TOML = """\
name = "cli-demo"
horizon = 0.01
placement = "rn"
[topology]
network = "1d"
[[jobs]]
app = "nn"
[jobs.params]
iters = 2
[[jobs]]
name = "late"
app = "lammps"
arrival = 0.002
[jobs.params]
iters = 2
[[traffic]]
name = "bg"
nranks = 4
interval_s = 0.001
"""


@pytest.fixture()
def scenario_file(tmp_path):
    p = tmp_path / "demo.toml"
    p.write_text(SCENARIO_TOML)
    return p


def test_scenario(capsys, scenario_file, tmp_path):
    out_json = tmp_path / "out.json"
    assert main(["scenario", str(scenario_file), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "cli-demo" in out
    for token in ("nn", "late", "bg", "traffic", "2.000 ms", "link loads"):
        assert token in out
    import json
    data = json.loads(out_json.read_text())
    assert {j["name"] for j in data["jobs"]} == {"nn", "late", "bg"}
    # Downstream consumers detect the document format by this stamp.
    from repro.telemetry import RESULT_SCHEMA_VERSION
    assert data["schema_version"] == RESULT_SCHEMA_VERSION == 1


def test_scenario_metrics_flags(capsys, scenario_file, tmp_path):
    import json
    out = tmp_path / "m.jsonl"
    assert main(["scenario", str(scenario_file),
                 "--metrics", str(out), "--metrics-filter", "mpi.job.*",
                 "--metrics-filter", "net.fabric.*"]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "union-sim.telemetry/v1"
    assert header["scenario"] == "cli-demo"
    keys = [json.loads(l)["key"] for l in lines[1:]]
    assert any(k.startswith("mpi.job.nn.") for k in keys)
    assert "net.fabric.messages_sent" in keys
    assert all(k.startswith(("mpi.job.", "net.fabric.")) for k in keys)
    assert f"wrote {out}" in capsys.readouterr().err


def test_run_metrics_flags(capsys, tmp_path):
    import json
    out = tmp_path / "run.jsonl"
    assert main(["run", "--workload", "baseline:nn", "--placement", "rn",
                 "--routing", "min", "--metrics", str(out),
                 "--metrics-filter", "mpi.job.*"]) == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["workload"] == "baseline:nn"
    keys = [json.loads(l)["key"] for l in lines[1:]]
    assert keys and all(k.startswith("mpi.job.nn.") for k in keys)


def test_batch_metrics_dir_flag(capsys, scenario_file, tmp_path):
    mdir = tmp_path / "metrics-out"
    assert main(["batch", str(tmp_path), "--metrics", str(mdir)]) == 0
    assert sorted(p.name for p in mdir.iterdir()) == ["demo.toml.metrics.jsonl"]


def test_run_metrics_filter_without_metrics_is_an_error(capsys):
    assert main(["run", "--workload", "baseline:nn",
                 "--metrics-filter", "mpi.job.*"]) == 2
    assert "requires --metrics" in capsys.readouterr().err


def test_metrics_path_in_missing_directory_fails_before_simulating(
        capsys, scenario_file, tmp_path):
    bad = str(tmp_path / "no-such-dir" / "out.jsonl")
    assert main(["run", "--workload", "baseline:nn", "--metrics", bad]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert main(["scenario", str(scenario_file), "--metrics", bad]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_scenario_metrics_filter_without_any_sink_is_an_error(capsys, scenario_file):
    assert main(["scenario", str(scenario_file),
                 "--metrics-filter", "mpi.job.*"]) == 2
    assert "needs a sink" in capsys.readouterr().err


def test_batch_metrics_filter_without_metrics_warns(capsys, scenario_file, tmp_path):
    assert main(["batch", str(tmp_path), "--metrics-filter", "mpi.job.*"]) == 0
    assert "only affects specs" in capsys.readouterr().err


def test_batch_metrics_dir_colliding_with_file_is_a_clean_error(
        capsys, scenario_file, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert main(["batch", str(tmp_path), "--metrics", str(blocker)]) == 2
    assert "collides with an existing file" in capsys.readouterr().err


def test_scenario_horizon_override(capsys, scenario_file):
    # A 1us horizon cuts the apps off -> nonzero exit, "cut off" status.
    assert main(["scenario", str(scenario_file), "--horizon", "1e-6"]) == 1
    assert "cut off" in capsys.readouterr().out


def test_scenario_nonpositive_horizon_override_is_rejected(capsys, scenario_file):
    assert main(["scenario", str(scenario_file), "--horizon", "0"]) == 2
    assert "must be > 0" in capsys.readouterr().err


def test_scenario_bad_spec_is_a_clean_error(capsys, tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("[[jobs]]\nbanana = 1\n")
    assert main(["scenario", str(p)]) == 2
    assert "unknown key 'banana'" in capsys.readouterr().err


def test_scenario_missing_source_file_is_a_clean_error(capsys, tmp_path):
    # Parses fine, fails at build time -> must still be a friendly error.
    p = tmp_path / "spec.toml"
    p.write_text('[[jobs]]\nname = "x"\nsource = "nope.ncptl"\nnranks = 2\n')
    assert main(["scenario", str(p)]) == 2
    assert "source file not found" in capsys.readouterr().err


def test_scenario_untranslatable_source_is_a_clean_error(capsys, tmp_path):
    (tmp_path / "bad.ncptl").write_text("this is not coNCePTuaL !!\n")
    p = tmp_path / "spec.toml"
    p.write_text('[[jobs]]\nname = "x"\nsource = "bad.ncptl"\nnranks = 2\n')
    assert main(["scenario", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_scenario_oversized_job_is_a_clean_error(capsys, tmp_path):
    # Parses fine, fails at placement time (500 > 144 nodes) -> exit 2.
    p = tmp_path / "spec.toml"
    p.write_text('[[jobs]]\napp = "ur"\nnranks = 500\n')
    assert main(["scenario", str(p)]) == 2
    assert "500 nodes" in capsys.readouterr().err


def test_batch(capsys, scenario_file, tmp_path):
    other = tmp_path / "second.toml"
    other.write_text(SCENARIO_TOML.replace('"cli-demo"', '"cli-demo-2"'))
    assert main(["batch", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cli-demo" in out and "cli-demo-2" in out
    assert "2 scenario(s), 0 failure(s)" in out


def test_batch_missing_directory(capsys, tmp_path):
    assert main(["batch", str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_topologies(capsys):
    assert main(["topologies"]) == 0
    out = capsys.readouterr().out
    for name in ("dragonfly", "torus", "fat-tree", "slim fly"):
        assert name in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_engines_lists_registry(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "partitions" in out and "lookahead" in out
    assert "yawns -> conservative" in out
    # Exactly the five presets, each row stating its three axes.
    header, _rule, *rows = out.splitlines()[1:8]
    assert [c.strip() for c in header.split("|")][:4] == [
        "name", "windowing", "backend", "layout"]
    assert [[c.strip() for c in r.split("|")][:4] for r in rows] == [
        ["sequential", "none", "python", "in-process"],
        ["conservative", "yawns", "python", "in-process"],
        ["mp-conservative", "yawns", "python", "mp"],
        ["accel-sequential", "none", "compiled", "in-process"],
        ["accel-conservative", "yawns", "compiled", "in-process"],
    ]


def test_timewarp_is_not_an_engine_choice(capsys):
    """The optimistic scheduler cannot run the network/MPI stack (no LP
    there saves state); asking for it is a usage error, not a traceback
    from inside the run."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--engine", "timewarp"])
    assert exc.value.code == 2
    assert "invalid choice: 'timewarp'" in capsys.readouterr().err


def test_run_with_conservative_engine_matches_sequential(capsys):
    from repro.harness.experiment import clear_cache

    clear_cache()
    assert main(["run", "--workload", "baseline:nn", "--placement", "rr",
                 "--routing", "min"]) == 0
    seq_out = capsys.readouterr().out
    assert main(["run", "--workload", "baseline:nn", "--placement", "rr",
                 "--routing", "min", "--engine", "conservative",
                 "--partitions", "3"]) == 0
    con_out = capsys.readouterr().out
    assert con_out == seq_out  # identical metrics, event for event


def test_partitions_flag_alone_implies_conservative(capsys):
    assert main(["run", "--workload", "baseline:nn", "--placement", "rr",
                 "--routing", "min", "--partitions", "3"]) == 0
    assert "link loads" in capsys.readouterr().out


def test_run_bad_partition_count_is_a_clean_error(capsys):
    assert main(["run", "--workload", "baseline:nn", "--placement", "rr",
                 "--routing", "min", "--engine", "conservative",
                 "--partitions", "12"]) == 2
    err = capsys.readouterr().err
    assert "only 9 groups" in err


def test_scenario_engine_override(capsys, scenario_file):
    assert main(["scenario", str(scenario_file)]) == 0
    seq_out = capsys.readouterr().out
    assert main(["scenario", str(scenario_file), "--engine", "conservative",
                 "--partitions", "3"]) == 0
    con_out = capsys.readouterr().out
    assert "engine: conservative, 3 partitions (group-partitioned)" in con_out
    # Everything above the engine line is the sequential report verbatim.
    assert con_out.startswith(seq_out)


def test_batch_engine_override(capsys, scenario_file, tmp_path):
    out_json = tmp_path / "batch.json"
    assert main(["batch", str(scenario_file.parent), "--engine", "conservative",
                 "--json", str(out_json)]) == 0
    import json

    doc = json.loads(out_json.read_text())
    assert doc["scenarios"][0]["engine"]["type"] == "conservative"
    assert doc["scenarios"][0]["engine"]["windows"] > 0


def test_sweep_accepts_jobs_flag():
    # The full sweep is exercised in tests/harness; just pin the flag.
    from repro.cli import build_parser

    args = build_parser().parse_args(["sweep", "--jobs", "3"])
    assert args.jobs == 3


def test_env_roster(capsys):
    assert main(["env"]) == 0
    out = capsys.readouterr().out
    assert "Control-policy registry" in out
    for name in ("scripted", "load-aware", "admission", "min_free"):
        assert name in out
    assert "keep, scripted, load-aware, defer" in out
    assert "docs/env.md" in out


def test_env_episode(capsys, scenario_file, tmp_path):
    import json
    import math
    out_json = tmp_path / "ep.json"
    assert main(["env", str(scenario_file), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "episode: 'cli-demo'" in out
    assert "policy 'scripted'" in out
    assert "return " in out and "avg_latency" in out
    data = json.loads(out_json.read_text())
    assert math.isfinite(data["total_reward"])
    assert data["result"]["env"]["steps"] == data["steps"]


def test_env_episode_policy_and_actions(capsys, scenario_file):
    assert main(["env", str(scenario_file), "--policy", "load-aware",
                 "--seed", "3", "--window", "0.0005",
                 "--action", "defer"]) in (0, 1)
    out = capsys.readouterr().out
    assert "policy 'load-aware'" in out
    assert "seed 3" in out
    assert "defer" in out


def test_env_bad_arguments(capsys, scenario_file):
    assert main(["env", str(scenario_file), "--policy", "warp9"]) == 2
    assert "unknown policy" in capsys.readouterr().err
    assert main(["env", str(scenario_file), "--window", "-1"]) == 2
    assert "--window must be > 0" in capsys.readouterr().err
    assert main(["env", str(scenario_file), "--action", "bogus"]) == 2
    assert "unknown action" in capsys.readouterr().err


def test_fuzz_smoke(capsys, tmp_path):
    out_json = tmp_path / "fuzz.json"
    assert main(["fuzz", "--seeds", "2", "--parity-stride", "0",
                 "--repro-dir", str(tmp_path / "repros"),
                 "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "2/2 cases clean" in out
    assert "conservation" in out and "determinism" in out
    import json
    data = json.loads(out_json.read_text())
    assert data["failures"] == 0
    assert data["invariants"] == ["conservation", "no_stuck_jobs",
                                  "determinism", "parity",
                                  "checkpoint_resume", "monotone_clocks"]


def test_fuzz_unknown_generator_is_a_clean_error(capsys):
    assert main(["fuzz", "--generator", "chaos", "--seeds", "1"]) == 2
    assert "unknown generator" in capsys.readouterr().err


def test_serve_submit_jobs_flags_parse():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--state", "st", "--workers", "4", "--port", "7399",
         "--checkpoint-interval", "0.01"])
    assert (args.state, args.workers, args.port) == ("st", 4, 7399)
    args = build_parser().parse_args(["submit", "spec.toml", "--wait"])
    assert args.server.startswith("http://127.0.0.1")
    args = build_parser().parse_args(["jobs", "job-000001", "--cancel"])
    assert args.job_id == "job-000001" and args.cancel


def test_submit_rejects_a_broken_spec_before_any_network(tmp_path, capsys):
    p = tmp_path / "bad.toml"
    p.write_text("[[jobs]]\nbanana = 1\n")
    assert main(["submit", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_submit_and_jobs_report_an_unreachable_service(tmp_path, capsys):
    spec = tmp_path / "ok.toml"
    spec.write_text('name = "t"\nhorizon = 0.001\n[[jobs]]\napp = "nn"\n')
    dead = "http://127.0.0.1:9"
    assert main(["submit", str(spec), "--server", dead]) == 2
    assert "union-sim serve" in capsys.readouterr().err
    assert main(["jobs", "--server", dead]) == 2
    assert "cannot reach service" in capsys.readouterr().err


def test_jobs_flags_without_an_id_are_an_error(capsys):
    assert main(["jobs", "--cancel"]) == 2
    assert "need a JOB id" in capsys.readouterr().err


def test_serve_rejects_bad_flag_values(capsys, tmp_path):
    assert main(["serve", "--state", str(tmp_path / "st"),
                 "--checkpoint-interval", "0"]) == 2
    assert "checkpoint-interval" in capsys.readouterr().err
    assert main(["serve", "--state", str(tmp_path / "st2"),
                 "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err


# -- --profile ---------------------------------------------------------------

def test_profile_flag_writes_pstats(capsys, scenario_file, tmp_path):
    import pstats
    prof = tmp_path / "run.pstats"
    assert main(["scenario", str(scenario_file),
                 "--profile", str(prof)]) == 0
    assert f"wrote profile to {prof}" in capsys.readouterr().err
    stats = pstats.Stats(str(prof))
    calls = {f"{path.rsplit('/', 1)[-1]}:{name}"
             for (path, _line, name) in stats.stats}
    # The simulation core is in the profile, not just CLI plumbing.
    assert any(name == "run_scenario" for (_p, _l, name) in stats.stats)
    assert calls
