"""Documentation drift checks (scripts/check_docs.py as tier-1 tests).

docs/cli.md must cover every argparse subcommand; every TOML/JSON
snippet in docs/scenarios.md must parse and validate.  The checker is
also exercised against doctored inputs so a regression in the checker
itself (e.g. a fence-regex change matching nothing) cannot silently
pass.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "scripts" / "check_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def check_docs():
    return load_check_docs()


def test_cli_doc_covers_every_subcommand(check_docs):
    check_docs.check_cli_doc()


def test_scenario_snippets_validate(check_docs):
    assert check_docs.check_scenario_snippets() >= 3


def test_registry_doc_names_every_component(check_docs):
    assert check_docs.check_registry_doc() >= 10


def test_telemetry_doc_names_every_sink_and_kind(check_docs):
    assert check_docs.check_telemetry_doc() >= 16


def test_engines_doc_names_every_engine_and_param(check_docs):
    # sequential + conservative with partitions/lookahead at minimum.
    assert check_docs.check_engines_doc() >= 4


def test_env_doc_names_every_policy_and_observation_field(check_docs):
    # 3 policies + min_free + 15 Observation fields at minimum.
    assert check_docs.check_env_doc() >= 19


def test_faults_doc_names_every_kind_generator_invariant(check_docs):
    # 4 fault kinds + 3 generators + 5 fuzz invariants at minimum.
    assert check_docs.check_faults_doc() >= 12


def test_service_doc_names_every_state_key_and_cache_file(check_docs):
    # 5 job states + 3 cache files + 2 telemetry counters at minimum.
    assert check_docs.check_service_doc() >= 10


def test_service_doc_job_state_drift_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "service.md").read_text()
    p = tmp_path / "service.md"
    p.write_text(text.replace("`cancelled`", "`canceled`"))
    with pytest.raises(AssertionError, match="cancelled"):
        check_docs.check_service_doc(p)


def test_service_doc_cache_counter_drift_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "service.md").read_text()
    p = tmp_path / "service.md"
    p.write_text(text.replace("`cache.hit`", "`cache.hits`"))
    with pytest.raises(AssertionError, match="cache.hit"):
        check_docs.check_service_doc(p)


def test_faults_doc_drift_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "faults.md").read_text()
    p = tmp_path / "faults.md"
    p.write_text(text.replace("`router-down`", "`router-gone`"))
    with pytest.raises(AssertionError, match="router-down"):
        check_docs.check_faults_doc(p)


def test_faults_doc_missing_invariant_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "faults.md").read_text()
    p = tmp_path / "faults.md"
    p.write_text(text.replace("`no_stuck_jobs`", "`no_stuck_job`"))
    with pytest.raises(AssertionError, match="no_stuck_jobs"):
        check_docs.check_faults_doc(p)


def test_registry_doc_missing_generator_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "registry.md").read_text()
    p = tmp_path / "registry.md"
    p.write_text(text.replace("`diurnal`", "`nocturnal`"))
    with pytest.raises(AssertionError, match="diurnal"):
        check_docs.check_registry_doc(p)


def test_env_doc_drift_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "env.md").read_text()
    p = tmp_path / "env.md"
    p.write_text(text.replace("`load-aware`", "`load-blind`"))
    with pytest.raises(AssertionError, match="load-aware"):
        check_docs.check_env_doc(p)


def test_env_doc_missing_observation_field_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "env.md").read_text()
    p = tmp_path / "env.md"
    p.write_text(text.replace("`router_queue`", "`router_fifo`"))
    with pytest.raises(AssertionError, match="router_queue"):
        check_docs.check_env_doc(p)


def test_engines_doc_drift_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "engines.md").read_text()
    p = tmp_path / "engines.md"
    p.write_text(text.replace("`conservative`", "`cautious`"))
    with pytest.raises(AssertionError, match="conservative"):
        check_docs.check_engines_doc(p)


def test_engines_doc_preset_row_lists_exactly_its_params(check_docs, tmp_path):
    text = (REPO / "docs" / "engines.md").read_text()
    row = "| `conservative` (`yawns`) | `yawns` | `python` | `partitions` |"
    assert row in text
    p = tmp_path / "engines.md"
    p.write_text(text.replace(row, row[:-2] + ", `lookahead` |"))
    with pytest.raises(AssertionError, match="lookahead"):
        check_docs.check_engines_doc(p)


def test_engines_doc_must_name_fabric_sync(check_docs, tmp_path):
    text = (REPO / "docs" / "engines.md").read_text()
    p = tmp_path / "engines.md"
    p.write_text(text.replace("`fabric.sync()`", "`fabric.flush()`"))
    with pytest.raises(AssertionError, match=r"fabric\.sync"):
        check_docs.check_engines_doc(p)


@pytest.mark.parametrize("name", ["adopt_ranks(", "ranks_reason`"])
def test_engines_doc_must_name_resident_ranks(check_docs, tmp_path, name):
    text = (REPO / "docs" / "engines.md").read_text()
    p = tmp_path / "engines.md"
    p.write_text(text.replace(f"`{name}", "`gone"))
    with pytest.raises(AssertionError, match=name.rstrip("(`")):
        check_docs.check_engines_doc(p)


def test_telemetry_doc_drift_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "telemetry.md").read_text()
    p = tmp_path / "telemetry.md"
    p.write_text(text.replace("`histogram`", "`spectrogram`"))
    with pytest.raises(AssertionError, match="histogram"):
        check_docs.check_telemetry_doc(p)


def test_registry_doc_drift_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "registry.md").read_text()
    p = tmp_path / "registry.md"
    p.write_text(text.replace("`torus`", "`donut`"))
    with pytest.raises(AssertionError, match="torus"):
        check_docs.check_registry_doc(p)


def test_missing_subcommand_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "cli.md").read_text()
    doctored = text.replace("## `union-sim scenario`", "## gone")
    p = tmp_path / "cli.md"
    p.write_text(doctored)
    with pytest.raises(AssertionError, match="scenario"):
        check_docs.check_cli_doc(p)


def test_stale_subcommand_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "cli.md").read_text()
    p = tmp_path / "cli.md"
    p.write_text(text + "\n## `union-sim frobnicate`\n\nnot a real subcommand\n")
    with pytest.raises(AssertionError, match="frobnicate"):
        check_docs.check_cli_doc(p)


def test_invalid_snippet_is_caught(check_docs, tmp_path):
    p = tmp_path / "scenarios.md"
    p.write_text('```toml\njobs = "oops"\n```\n')
    with pytest.raises(AssertionError, match="snippet #1"):
        check_docs.check_scenario_snippets(p)


def test_snippetless_doc_is_caught(check_docs, tmp_path):
    p = tmp_path / "scenarios.md"
    p.write_text("no fences here\n")
    with pytest.raises(AssertionError, match="no toml/json"):
        check_docs.check_scenario_snippets(p)


def test_checker_runs_as_a_script():
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "docs OK" in proc.stdout


def test_scenario_key_tables_name_every_declared_key(check_docs):
    # 15 top-level keys + 8 job keys at minimum.
    assert check_docs.check_scenario_key_tables() >= 23


def test_scenario_key_table_missing_key_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "scenarios.md").read_text()
    row = "| `iters` | `0` | rounds per rank; `0` = endless |\n"
    assert row in text
    p = tmp_path / "scenarios.md"
    p.write_text(text.replace(row, ""))
    with pytest.raises(AssertionError, match=r"\[traffic\] key table misses \['iters'\]"):
        check_docs.check_scenario_key_tables(p)


def test_scenario_key_table_stale_key_is_caught(check_docs, tmp_path):
    text = (REPO / "docs" / "scenarios.md").read_text()
    row = "| `servers` | `1` |"
    assert row in text
    p = tmp_path / "scenarios.md"
    p.write_text(text.replace(row, "| `servers` / `replicas` | `1` |"))
    with pytest.raises(AssertionError, match=r"\[storage\].*\['replicas'\]"):
        check_docs.check_scenario_key_tables(p)


def test_scenario_key_table_for_a_declared_table_is_required(check_docs, tmp_path):
    text = (REPO / "docs" / "scenarios.md").read_text()
    table = ("| Key | Default | Meaning |\n|---|---|---|\n"
             "| `servers` | `1` | storage servers, one on each of the last "
             "`servers` terminal nodes |\n")
    assert table in text
    p = tmp_path / "scenarios.md"
    p.write_text(text.replace(table, ""))
    with pytest.raises(AssertionError, match=r"no .* table for the \[storage\] keys"):
        check_docs.check_scenario_key_tables(p)
