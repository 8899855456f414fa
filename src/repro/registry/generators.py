"""Generator registry: named scenario generators as the sixth family.

A *generator* turns one integer seed (plus typed parameters) into a
complete, valid scenario mapping -- the same plain ``dict`` shape that
``load_scenario`` reads from TOML.  Generators power the property-based
fuzz harness (``union-sim fuzz``) and the ``examples/scenarios``
regeneration flow: instead of hand-writing hundreds of job mixes, a
seed sweep over a generator explores the configuration space while
every emitted spec still passes the real parser and round-trips
through :func:`repro.scenario.to_toml` bit-identically.

``random-mix``
    Random job mixes from the workload catalog with staggered arrivals,
    background injectors and (optionally) sprinkled fault entries.
``diurnal``
    One anchor job under a diurnal (thinned inhomogeneous Poisson)
    arrival process of thousands of small traffic bursts.
``hotspot-blend``
    A blend of hotspot and uniform injectors with randomized hot-rank
    sets alongside a couple of catalog jobs.

Like the policy family, factories live behind thin import thunks
(:mod:`repro.generate.builtin`) so this module stays importable from
``repro.registry.__init__`` without dragging in the scenario parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.registry.core import ComponentSpec, Param, Registry


@dataclass(frozen=True)
class GeneratorSpec(ComponentSpec):
    """One registered scenario generator.

    ``factory(seed, **params) -> dict`` returns a plain scenario
    mapping (the TOML shape); callers validate it through the real
    parser -- a generator's contract is that every seed yields a
    mapping :func:`repro.scenario.parse_scenario` accepts.
    """

    factory: "Callable[..., dict] | None" = None

    def build(self, seed: int, params: "Mapping[str, Any]") -> dict:
        assert self.factory is not None
        return self.factory(seed, **params)


generator_registry = Registry("generator")


def register_generator(spec: GeneratorSpec, aliases: tuple[str, ...] = (),
                       replace: bool = False) -> GeneratorSpec:
    """Add a scenario generator to the roster (``docs/scenarios.md``)."""
    if spec.factory is None:
        raise ValueError(f"generator {spec.name!r} needs a factory")
    generator_registry.register(spec, aliases=aliases, replace=replace)
    return spec


def build_generator(generator: "str | Mapping[str, Any]", seed: int,
                    path: str = "generator") -> dict:
    """Resolve a generator argument and emit one scenario mapping.

    Accepts a registry name (``"random-mix"``) or a canonical table
    (``{"type": "random-mix", "jobs": 6}``).  Returns the raw mapping;
    :func:`repro.generate.generate_scenario` is the validating wrapper.
    """
    spec, table = generator_registry.split_table(
        {"type": generator} if isinstance(generator, str) else generator, path)
    assert isinstance(spec, GeneratorSpec)
    params = spec.resolve_params(table, path, kind="generator")
    return spec.build(seed, params)


def available_generators() -> tuple[str, ...]:
    return generator_registry.names()


# -- built-in roster ---------------------------------------------------------
# Thin thunks defer the import of repro.generate.builtin (which imports
# the workload catalog) to first use.

def _random_mix(seed: int, **params) -> dict:
    from repro.generate.builtin import random_mix

    return random_mix(seed, **params)


def _diurnal(seed: int, **params) -> dict:
    from repro.generate.builtin import diurnal

    return diurnal(seed, **params)


def _hotspot_blend(seed: int, **params) -> dict:
    from repro.generate.builtin import hotspot_blend

    return hotspot_blend(seed, **params)


register_generator(GeneratorSpec(
    name="random-mix",
    summary="random catalog job mixes with staggered arrivals, background "
            "injectors and optional sprinkled faults",
    params=(
        Param("jobs", "int", "catalog jobs to draw", default=3, minimum=1),
        Param("traffic", "int", "background injectors to draw",
              default=1, minimum=0),
        Param("faults", "int", "fault entries to sprinkle",
              default=0, minimum=0),
        Param("horizon", "float", "simulation horizon (s)",
              default=0.006, minimum=0, exclusive=True),
        Param("fabric", "str", "target topology family",
              default="dragonfly",
              choices=("dragonfly", "fattree", "torus")),
    ),
    factory=_random_mix,
), aliases=("mix",))

register_generator(GeneratorSpec(
    name="diurnal",
    summary="one anchor job under a diurnal (thinned Poisson) arrival "
            "process of small traffic bursts",
    params=(
        Param("arrivals", "int", "traffic arrivals to sample",
              default=2000, minimum=1),
        Param("period", "float", "diurnal cycle length (s)",
              default=0.02, minimum=0, exclusive=True),
        Param("horizon", "float", "simulation horizon (s)",
              default=0.05, minimum=0, exclusive=True),
    ),
    factory=_diurnal,
), aliases=("poisson",))

register_generator(GeneratorSpec(
    name="hotspot-blend",
    summary="hotspot + uniform injector blends with randomized hot-rank "
            "sets alongside catalog jobs",
    params=(
        Param("injectors", "int", "traffic injectors to draw",
              default=3, minimum=1),
        Param("jobs", "int", "catalog jobs to draw", default=2, minimum=1),
        Param("horizon", "float", "simulation horizon (s)",
              default=0.006, minimum=0, exclusive=True),
    ),
    factory=_hotspot_blend,
))
