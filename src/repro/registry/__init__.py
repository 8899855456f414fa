"""Component registry: one spec-driven API for topologies, routings
and placements.

The paper's workload manager sweeps *configurations* -- topology x
routing x placement -- so every one of those dimensions is a named,
self-describing, parameterized component here instead of a frozen
tuple in some dispatch site.  The scenario parser, the harness, the
workload manager and the CLI all derive their choices, defaults and
help text from this package; registering a new fabric or policy makes
it reachable from every surface at once (``docs/registry.md``).

* :mod:`repro.registry.core`       -- generic registry + typed params
* :mod:`repro.registry.topologies` -- fabric models with scale presets
* :mod:`repro.registry.routings`   -- per-topology routing capability
* :mod:`repro.registry.placements` -- policies with declared requirements
* :mod:`repro.registry.engines`    -- PDES execution engines
* :mod:`repro.registry.policies`   -- session control policies
* :mod:`repro.registry.generators` -- generative scenario factories
"""

from repro.registry.core import ComponentSpec, Param, Registry, RegistryError
from repro.registry.generators import (
    GeneratorSpec,
    available_generators,
    build_generator,
    generator_registry,
    register_generator,
)
from repro.registry.engines import (
    ENGINE_AXES,
    EngineSpec,
    available_engines,
    build_engine,
    engine_axes,
    engine_registry,
    register_engine,
)
from repro.registry.policies import (
    PolicySpec,
    available_policies,
    build_policy,
    policy_registry,
    register_policy,
)
from repro.registry.placements import (
    PlacementSpec,
    available_placements,
    check_placement,
    placement_registry,
    register_placement,
)
from repro.registry.routings import (
    RoutingSpec,
    all_routing_names,
    available_routings,
    register_routing,
    resolve_routing,
    routing_spec,
)
from repro.registry.topologies import (
    SCALES,
    Capabilities,
    TopologySpec,
    build_topology,
    capabilities_of,
    register_topology,
    resolve_topology_params,
    spec_for_instance,
    topology_label,
    topology_registry,
)

__all__ = [
    "Capabilities",
    "ComponentSpec",
    "ENGINE_AXES",
    "EngineSpec",
    "GeneratorSpec",
    "Param",
    "PlacementSpec",
    "PolicySpec",
    "Registry",
    "RegistryError",
    "RoutingSpec",
    "SCALES",
    "TopologySpec",
    "all_routing_names",
    "available_engines",
    "available_generators",
    "available_placements",
    "available_policies",
    "available_routings",
    "build_engine",
    "build_generator",
    "build_policy",
    "build_topology",
    "engine_axes",
    "engine_registry",
    "generator_registry",
    "policy_registry",
    "register_engine",
    "register_generator",
    "register_policy",
    "capabilities_of",
    "check_placement",
    "placement_registry",
    "register_placement",
    "register_routing",
    "register_topology",
    "resolve_routing",
    "resolve_topology_params",
    "routing_spec",
    "spec_for_instance",
    "topology_label",
    "topology_registry",
]
