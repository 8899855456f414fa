#!/usr/bin/env python
"""Documentation drift checks (registered as a tier-1 test).

Three invariants keep the docs honest:

1. ``docs/cli.md`` must name **every** subcommand registered on the
   ``union-sim`` argparse parser (introspected, not hard-coded), plus
   every subcommand it documents must actually exist.
2. Every fenced ``toml``/``json`` snippet in ``docs/scenarios.md`` must
   parse *and* validate through :func:`repro.scenario.parse_scenario` --
   the format reference cannot show a spec the parser would reject.
3. ``docs/registry.md`` must name every registered component
   (topologies, routings, placements, scenario generators), so the
   roster tables cannot silently drift from :mod:`repro.registry`.
4. ``docs/telemetry.md`` must name every registered telemetry sink and
   instrument kind (from :data:`repro.telemetry.SINK_KINDS` /
   :data:`repro.telemetry.INSTRUMENT_KINDS`) *and* their classes, so
   the pipeline reference cannot drift from :mod:`repro.telemetry`.
5. ``docs/engines.md`` must name every registered execution engine,
   every parameter it declares and every enumerated parameter choice,
   list in each preset-table row exactly that preset's parameters,
   and state which preset ``DEFAULT_ENGINE`` is, so the engine
   reference cannot drift from :mod:`repro.registry.engines`; it must
   also name ``fabric.sync()``, the resident fabric's pull-coherence
   call, every :class:`~repro.pdes.engine.Engine` hook (``adopt_ranks``
   among them) and the ``ranks``/``ranks_reason`` stanza keys.
6. ``docs/env.md`` must name every registered control policy (with its
   declared parameters) and every field of the session
   :class:`~repro.union.session.Observation` snapshot, so the control
   surface reference cannot drift from :mod:`repro.registry.policies`
   or the observation schema.
7. ``docs/faults.md`` must name every fault kind
   (:data:`repro.scenario.FAULT_KINDS`), every scenario generator and
   every fuzz invariant (:data:`repro.fuzz.INVARIANTS`), so the
   fault/fuzz reference cannot drift from the code.
8. ``docs/service.md`` must name every job lifecycle state, every
   checkpoint-file key (and the exact format tag), the cache entry's
   file names and the cache telemetry counters, so the service
   reference cannot drift from :mod:`repro.service`.

Run directly (``python scripts/check_docs.py``) or via pytest
(``tests/test_docs.py`` wraps the same functions).
"""

from __future__ import annotations

import json
import re
import sys
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

_FENCE_RE = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def registered_subcommands() -> set[str]:
    """The subcommand names argparse actually registers, introspected."""
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        return set(action.choices)
    raise AssertionError("union-sim parser has no subparsers")  # pragma: no cover


def documented_subcommands(cli_md: str) -> set[str]:
    """Subcommands docs/cli.md documents, via its ``## `union-sim X``` headings."""
    return set(re.findall(r"^## `union-sim (\w+)`", cli_md, re.MULTILINE))


def check_cli_doc(path: Path = DOCS / "cli.md") -> None:
    """docs/cli.md and the argparse parser must agree exactly."""
    text = path.read_text()
    actual = registered_subcommands()
    documented = documented_subcommands(text)
    missing = actual - documented
    assert not missing, (
        f"{path} is missing a section for subcommand(s) {sorted(missing)}; "
        "add an '## `union-sim <name>`' heading with usage and example output"
    )
    stale = documented - actual
    assert not stale, (
        f"{path} documents subcommand(s) {sorted(stale)} that no longer exist "
        "in repro/cli.py; delete or update those sections"
    )


def scenario_snippets(path: Path = DOCS / "scenarios.md") -> list[tuple[str, str]]:
    """All fenced (language, body) blocks with toml/json language tags."""
    return [
        (lang, body)
        for lang, body in _FENCE_RE.findall(path.read_text())
        if lang in ("toml", "json")
    ]


def check_scenario_snippets(path: Path = DOCS / "scenarios.md") -> int:
    """Every toml/json snippet in docs/scenarios.md must validate.

    Returns the number of snippets checked (the caller asserts > 0 so an
    accidental fence-syntax change cannot silently skip everything).
    """
    from repro.scenario import parse_scenario

    snippets = scenario_snippets(path)
    assert snippets, f"{path} contains no toml/json snippets -- fence regex broken?"
    for i, (lang, body) in enumerate(snippets):
        where = f"{path} snippet #{i + 1} ({lang})"
        try:
            data = tomllib.loads(body) if lang == "toml" else json.loads(body)
        except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
            raise AssertionError(f"{where} is not well-formed {lang}: {exc}") from None
        try:
            parse_scenario(data, name=f"snippet-{i + 1}", base_dir=path.parent)
        except Exception as exc:
            raise AssertionError(f"{where} fails validation: {exc}") from None
    return len(snippets)


def check_registry_doc(path: Path = DOCS / "registry.md") -> int:
    """docs/registry.md must name every registered component.

    Names must appear backtick-quoted (as in the roster tables).
    Returns the number of component names checked.
    """
    from repro.registry import (
        all_routing_names,
        available_generators,
        placement_registry,
        topology_registry,
    )

    text = path.read_text()
    names = (
        list(topology_registry.names())
        + list(all_routing_names())
        + list(placement_registry.names())
        + list(available_generators())
    )
    missing = [n for n in names if f"`{n}`" not in text]
    assert not missing, (
        f"{path} does not mention registered component(s) {missing}; "
        "update the roster tables (names must be backtick-quoted)"
    )
    return len(names)


def check_telemetry_doc(path: Path = DOCS / "telemetry.md") -> int:
    """docs/telemetry.md must name every sink and instrument kind.

    Kind names and class names must appear backtick-quoted (as in the
    taxonomy tables).  Returns the number of names checked.
    """
    from repro.telemetry import INSTRUMENT_KINDS, SINK_KINDS

    text = path.read_text()
    names = list(INSTRUMENT_KINDS) + [c.__name__ for c in INSTRUMENT_KINDS.values()]
    names += list(SINK_KINDS) + [c.__name__ for c in SINK_KINDS.values()]
    missing = [n for n in names if f"`{n}`" not in text]
    assert not missing, (
        f"{path} does not mention telemetry sink/instrument name(s) {missing}; "
        "update the taxonomy tables (names must be backtick-quoted)"
    )
    return len(names)


def check_engines_doc(path: Path = DOCS / "engines.md") -> int:
    """docs/engines.md must name every engine, alias, param, choice
    and axis.

    Names must appear backtick-quoted (as in the roster and parameter
    listings); enumerated parameters (``Param.choices``) must document
    every accepted value, every registered alias must be named so
    the shorthand a scenario may use is discoverable, and the axis
    table must name every axis and value.  Each preset's row of the
    preset table (``| `<name>` ...``) must end in exactly its declared
    parameters, in order (``—`` for none), so a deleted parameter
    cannot stay documented.  The page must also state the default
    preset as ``DEFAULT_ENGINE = "<name>"``.  Returns the number of
    names checked.
    """
    from repro.registry import DEFAULT_ENGINE, ENGINE_AXES, engine_registry

    text = path.read_text()
    names: list[str] = []
    for axis, values in ENGINE_AXES.items():
        names.extend((axis, *values))
    for spec in engine_registry:
        names.append(spec.name)
        for p in spec.params:
            names.append(p.name)
            if p.choices:
                names.extend(str(c) for c in p.choices)
    names.extend(engine_registry.aliases())
    missing = [n for n in names if f"`{n}`" not in text]
    assert not missing, (
        f"{path} does not mention registered engine(s)/parameter(s) {missing}; "
        "update the engine reference (names must be backtick-quoted)"
    )
    rows = {}
    for line in text.splitlines():
        if m := re.match(r"\| `([^`]+)` \(", line):
            rows[m.group(1)] = line
    for spec in engine_registry:
        assert spec.name in rows, (
            f"{path}: the preset table has no row for `{spec.name}`")
        listed = tuple(re.findall(r"`([^`]+)`",
                                  rows[spec.name].rstrip(" |").rsplit("|", 1)[1]))
        assert listed == spec.param_names(), (
            f"{path}: the preset table lists parameters {list(listed)} for "
            f"`{spec.name}`, but it declares {list(spec.param_names())}")
    default = f'DEFAULT_ENGINE = "{DEFAULT_ENGINE}"'
    assert default in text, (
        f"{path} does not state the default engine; it must say "
        f"`{default}` (repro.registry.engines)")
    assert "`fabric.sync()`" in text, (
        f"{path} does not name `fabric.sync()`, the way to read a resident "
        "fabric's mirrors between coherence points")
    hooks = ("adopt_fabric", "adopt_ranks", "bind_telemetry", "describe")
    unnamed = [h for h in hooks if f"`{h}(" not in text]
    unnamed += [k for k in ("ranks", "ranks_reason") if f"`{k}`" not in text]
    assert not unnamed, (
        f"{path} does not name engine hook(s)/stanza key(s) {unnamed}; the "
        "hook table and the resident-ranks section must (backtick-quoted)")
    return len(names) + 2 + len(hooks) + 2


def check_env_doc(path: Path = DOCS / "env.md") -> int:
    """docs/env.md must name every policy and every Observation field.

    Policy names, their declared parameters, and the fields of the
    session's ``Observation`` snapshot must appear backtick-quoted.
    Returns the number of names checked.
    """
    import dataclasses

    from repro.registry import policy_registry
    from repro.union.session import Observation

    text = path.read_text()
    names: list[str] = []
    for spec in policy_registry:
        names.append(spec.name)
        names.extend(p.name for p in spec.params)
    names.extend(f.name for f in dataclasses.fields(Observation))
    missing = [n for n in names if f"`{n}`" not in text]
    assert not missing, (
        f"{path} does not mention policy/observation name(s) {missing}; "
        "update the rosters (names must be backtick-quoted)"
    )
    return len(names)


def check_faults_doc(path: Path = DOCS / "faults.md") -> int:
    """docs/faults.md must name every fault kind, generator, invariant.

    Names must appear backtick-quoted (as in the kind/generator/
    invariant tables).  Returns the number of names checked.
    """
    from repro.fuzz import INVARIANTS
    from repro.registry import available_generators
    from repro.scenario import FAULT_KINDS

    text = path.read_text()
    names = list(FAULT_KINDS) + list(available_generators()) + list(INVARIANTS)
    missing = [n for n in names if f"`{n}`" not in text]
    assert not missing, (
        f"{path} does not mention fault kind/generator/invariant name(s) "
        f"{missing}; update the reference tables (names must be "
        "backtick-quoted)"
    )
    return len(names)


def check_service_doc(path: Path = DOCS / "service.md") -> int:
    """docs/service.md must name the service's durable surface.

    Every job lifecycle state, every checkpoint-file key plus the exact
    format tag, the cache entry's three file names and the cache
    telemetry counters must appear backtick-quoted.  Returns the number
    of names checked.
    """
    from repro.service import CHECKPOINT_FORMAT, JobState
    from repro.service.checkpoint import CHECKPOINT_KEYS

    text = path.read_text()
    names = [state.value for state in JobState]
    names += list(CHECKPOINT_KEYS) + [CHECKPOINT_FORMAT]
    names += ["spec.toml", "result.json", "telemetry.jsonl",
              "cache.hit", "cache.miss"]
    missing = [n for n in names if f"`{n}`" not in text]
    assert not missing, (
        f"{path} does not mention service state/key/file name(s) {missing}; "
        "update the service reference (names must be backtick-quoted)"
    )
    return len(names)


def main() -> int:
    check_cli_doc()
    n = check_scenario_snippets()
    m = check_registry_doc()
    k = check_telemetry_doc()
    e = check_engines_doc()
    v = check_env_doc()
    f = check_faults_doc()
    s = check_service_doc()
    print(f"docs OK: cli.md covers all {len(registered_subcommands())} subcommands; "
          f"{n} scenarios.md snippets validate; "
          f"registry.md names all {m} components; "
          f"telemetry.md names all {k} sinks/instrument kinds; "
          f"engines.md names all {e} engines/parameters; "
          f"env.md names all {v} policies/observation fields; "
          f"faults.md names all {f} fault kinds/generators/invariants; "
          f"service.md names all {s} states/checkpoint keys/cache files")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
