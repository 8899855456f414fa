"""Declarative experiment scenarios (the "as many scenarios as you can
imagine" layer).

One 20-line TOML/JSON file describes a whole hybrid-workload experiment:
the topology, routing, placement and seed, the measured jobs -- each
with an optional mid-simulation arrival time and per-job overrides --
and background-traffic injectors loading the fabric underneath them.

* :mod:`repro.scenario.spec`   -- parsing + validation (:func:`load_scenario`)
* :mod:`repro.scenario.emit`   -- deterministic TOML emission (:func:`to_toml`)
* :mod:`repro.scenario.runner` -- one scenario -> metrics (:func:`run_scenario`)
* :mod:`repro.scenario.batch`  -- a directory of scenarios -> one report

See ``docs/scenarios.md`` for the spec-format reference.
"""

from repro.scenario.batch import (
    BatchResult,
    discover_specs,
    pool_map,
    render_batch_summary,
    run_batch,
    run_spec_file,
)
from repro.scenario.runner import (
    JobReport,
    ScenarioResult,
    build_manager,
    build_scenario_topology,
    build_telemetry,
    reduce_scenario_result,
    render_scenario_report,
    run_scenario,
)
from repro.scenario.emit import dump_toml, to_toml
from repro.scenario.spec import (
    DOWN_FAULT_KINDS,
    FAULT_KINDS,
    EnvEntry,
    FaultEntry,
    JobEntry,
    MetricsEntry,
    ScenarioError,
    ScenarioSpec,
    StorageEntry,
    TrafficEntry,
    entry_dict,
    load_scenario,
    parse_engine_table,
    parse_policy_table,
    parse_scenario,
)

__all__ = [
    "BatchResult",
    "DOWN_FAULT_KINDS",
    "EnvEntry",
    "FAULT_KINDS",
    "FaultEntry",
    "JobEntry",
    "JobReport",
    "MetricsEntry",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "StorageEntry",
    "TrafficEntry",
    "build_manager",
    "build_scenario_topology",
    "build_telemetry",
    "discover_specs",
    "dump_toml",
    "entry_dict",
    "load_scenario",
    "parse_engine_table",
    "parse_policy_table",
    "parse_scenario",
    "pool_map",
    "reduce_scenario_result",
    "render_batch_summary",
    "render_scenario_report",
    "run_batch",
    "run_spec_file",
    "to_toml",
]
