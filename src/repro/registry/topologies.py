"""Topology registry: every fabric model as a named, parameterized spec.

Each :class:`TopologySpec` declares its typed parameters, its scale
*presets* (``mini``/``paper`` parameter bundles, so ``--scale`` and the
scenario ``[topology]`` table mean the same thing everywhere), the
routing policies that can run on it, sensible routing/placement
defaults, and two capability flags the placement layer consults:

``has_groups``
    Dragonfly-style group structure (``n_groups``, ``nodes_of_group``,
    ``group_of``): required by the RG placement and the group-level
    measurement reductions.
``uniform_nodes``
    Every router hosts exactly ``nodes_per_router`` compute nodes:
    required by the RR placement (a fat-tree attaches nodes to edge
    switches only, so handing a job "whole routers" would silently
    under-allocate there).

Resolution order for a ``[topology]`` table: start from the preset
named by ``scale`` (default ``mini``), overlay any explicitly given
parameters, then call the factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.network.dragonfly import Dragonfly1D
from repro.network.dragonfly2d import Dragonfly2D
from repro.network.fattree import FatTreeTopology
from repro.network.slimfly import SlimFlyTopology
from repro.network.torus import TorusTopology
from repro.pdes import collector
from repro.registry.core import ComponentSpec, Param, Registry, _err, key_path

#: Scales every topology must provide a preset for.
SCALES = ("mini", "paper")
#: The ``scale`` key of every ``[topology]`` table: the preset to overlay.
SCALE_PARAM = Param("scale", "str", "size preset", default="mini", choices=SCALES)


@dataclass(frozen=True)
class TopologySpec(ComponentSpec):
    """One registered fabric model."""

    cls: type | None = None
    factory: Callable[..., Any] | None = None
    presets: Mapping[str, Mapping[str, Any]] | None = None
    routings: tuple[str, ...] = ()
    default_routing: str = ""
    default_placement: str = "rn"
    has_groups: bool = False
    uniform_nodes: bool = True

    def build(self, params: Mapping[str, Any]) -> Any:
        factory = self.factory or self.cls
        assert factory is not None
        return factory(**params)


topology_registry = Registry("topology")


def register_topology(spec: TopologySpec, aliases: tuple[str, ...] = (),
                      replace: bool = False) -> TopologySpec:
    """Add a fabric model to the roster (``docs/registry.md`` shows how)."""
    missing = [s for s in SCALES if s not in (spec.presets or {})]
    if missing:
        raise ValueError(f"topology {spec.name!r} lacks presets for {missing}")
    if not spec.routings or spec.default_routing not in spec.routings:
        raise ValueError(f"topology {spec.name!r}: default_routing must be "
                         f"one of its routings {spec.routings}")
    # The default placement must be runnable on the topology's own
    # declared capabilities, or every spec/CLI invocation that names the
    # topology without an explicit placement would fail confusingly.
    # Checked lazily: during this package's own bootstrap the placement
    # registry is not populated yet (the built-ins are correct by
    # construction).
    import sys

    placements = sys.modules.get("repro.registry.placements")
    placement_registry = getattr(placements, "placement_registry", None)
    if placement_registry is not None and spec.default_placement in placement_registry:
        caps = Capabilities(spec.name, spec.has_groups, spec.uniform_nodes)
        pspec = placement_registry.get(spec.default_placement)
        if not pspec.supports(caps):
            raise ValueError(
                f"topology {spec.name!r}: default_placement "
                f"{spec.default_placement!r} is not available on it "
                f"(declared capabilities: has_groups={spec.has_groups}, "
                f"uniform_nodes={spec.uniform_nodes})"
            )
    topology_registry.register(spec, aliases=aliases, replace=replace)
    return spec


def resolve_topology_params(
    spec: TopologySpec, table: Mapping[str, Any], path: str = "topology"
) -> dict[str, Any]:
    """Preset-then-overlay resolution of one ``[topology]`` table.

    ``table`` holds everything except the ``type`` key: an optional
    ``scale`` naming a preset plus explicit parameter overrides.
    """
    table = dict(table)
    scale = table.pop("scale", SCALE_PARAM.default)
    if not isinstance(scale, str) or scale not in SCALES:
        raise _err(key_path(path, "scale"),
                   f"unknown scale {scale!r}; expected one of {list(SCALES)}")
    params = dict(spec.presets[scale])
    params.update(spec.validate_params(table, path, kind="topology"))
    return params


def build_topology(table: Mapping[str, Any], path: str = "topology") -> Any:
    """Instantiate a topology from a canonical ``{"type": ..., ...}`` table."""
    spec, table = topology_registry.split_table(table, path)
    assert isinstance(spec, TopologySpec)
    params = resolve_topology_params(spec, table, path)
    with collector.building():
        return spec.build(params)


def spec_for_instance(topo: Any) -> TopologySpec | None:
    """The registered spec a live topology object belongs to, if any."""
    for spec in topology_registry:
        assert isinstance(spec, TopologySpec)
        if spec.cls is not None and type(topo) is spec.cls:
            return spec
    for spec in topology_registry:  # subclasses of registered models
        assert isinstance(spec, TopologySpec)
        if spec.cls is not None and isinstance(topo, spec.cls):
            return spec
    return None


def topology_label(topo: Any) -> str:
    """Short display name of a topology instance (registry name if known)."""
    spec = spec_for_instance(topo)
    if spec is not None:
        return spec.name
    return getattr(topo, "name", type(topo).__name__)


@dataclass(frozen=True)
class Capabilities:
    """What the placement layer may assume about a topology."""

    label: str
    has_groups: bool
    uniform_nodes: bool


def capabilities_of(topo: Any) -> Capabilities:
    """Capability flags of a topology instance.

    Registered models answer from their spec; unknown (user-built)
    models are probed with the same structural predicates the placement
    policies enforce directly, so both entry points always agree.
    """
    spec = spec_for_instance(topo)
    if spec is not None:
        return Capabilities(spec.name, spec.has_groups, spec.uniform_nodes)
    from repro.placement.policies import (
        topology_has_groups,
        topology_has_uniform_routers,
    )

    return Capabilities(
        topology_label(topo),
        topology_has_groups(topo),
        topology_has_uniform_routers(topo),
    )


# -- built-in roster ---------------------------------------------------------

_DRAGONFLY_PARAMS = (
    Param("n_groups", "int", "number of all-to-all connected groups", minimum=2),
    Param("routers_per_group", "int", "routers in each group", minimum=1),
    Param("nodes_per_router", "int", "compute nodes per router", minimum=1),
    Param("global_per_router", "int", "global channels per router (h)", minimum=1),
)

register_topology(TopologySpec(
    name="dragonfly1d",
    summary="1D dragonfly: fully-connected groups (Kim et al., ISCA'08)",
    params=_DRAGONFLY_PARAMS,
    cls=Dragonfly1D,
    presets={
        "mini": dict(n_groups=9, routers_per_group=8, nodes_per_router=2,
                     global_per_router=2),
        "paper": dict(n_groups=33, routers_per_group=32, nodes_per_router=8,
                      global_per_router=4),
    },
    routings=("min", "adp"),
    default_routing="adp",
    default_placement="rg",
    has_groups=True,
    uniform_nodes=True,
), aliases=("1d",))

register_topology(TopologySpec(
    name="dragonfly2d",
    summary="2D dragonfly: row/column grid groups (Slingshot-style)",
    params=(
        Param("n_groups", "int", "number of groups", minimum=2),
        Param("rows", "int", "router grid rows per group", minimum=1),
        Param("cols", "int", "router grid columns per group", minimum=1),
        Param("nodes_per_router", "int", "compute nodes per router", minimum=1),
        Param("global_per_router", "int", "global channels per router (h)", minimum=1),
    ),
    cls=Dragonfly2D,
    presets={
        "mini": dict(n_groups=6, rows=4, cols=6, nodes_per_router=1,
                     global_per_router=2),
        "paper": dict(n_groups=22, rows=6, cols=16, nodes_per_router=4,
                      global_per_router=7),
    },
    routings=("min", "adp"),
    default_routing="adp",
    default_placement="rg",
    has_groups=True,
    uniform_nodes=True,
), aliases=("2d",))

register_topology(TopologySpec(
    name="fattree",
    summary="three-level k-ary fat-tree (Clos), full bisection",
    params=(
        Param("k", "int", "switch radix; even, k^3/4 nodes", minimum=2),
    ),
    cls=FatTreeTopology,
    presets={
        "mini": dict(k=8),      # 128 nodes, 80 switches
        "paper": dict(k=16),    # 1024 nodes, 320 switches
    },
    routings=("dmodk", "random", "adaptive"),
    default_routing="dmodk",
    default_placement="rn",
    has_groups=False,
    uniform_nodes=False,  # only edge switches host nodes
), aliases=("fat-tree",))

register_topology(TopologySpec(
    name="torus",
    summary="k-ary n-dimensional torus with dimension-order routing",
    params=(
        Param("dims", "int_list", "ring length per dimension", minimum=2),
        Param("nodes_per_router", "int", "compute nodes per router", minimum=1),
    ),
    cls=TorusTopology,
    presets={
        "mini": dict(dims=(4, 4, 4), nodes_per_router=2),    # 128 nodes
        "paper": dict(dims=(8, 8, 8), nodes_per_router=4),   # 2048 nodes
    },
    routings=("dor",),
    default_routing="dor",
    default_placement="rn",
    has_groups=False,
    uniform_nodes=True,
))

register_topology(TopologySpec(
    name="slimfly",
    summary="Slim Fly MMS graph: degree-optimal diameter-2 network",
    params=(
        Param("q", "int", "prime q = 4w + 1 (5, 13, 17, ...); 2q^2 routers",
              minimum=2),
        Param("nodes_per_router", "int", "compute nodes per router", minimum=1),
    ),
    cls=SlimFlyTopology,
    presets={
        "mini": dict(q=5, nodes_per_router=2),     # 100 nodes
        "paper": dict(q=13, nodes_per_router=6),   # 2028 nodes
    },
    routings=("min", "adaptive"),
    default_routing="min",
    default_placement="rn",
    has_groups=False,
    uniform_nodes=True,
), aliases=("slim-fly",))
