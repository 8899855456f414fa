"""Canonical experiment dimensions (Section IV), registry-derived.

The tuples here used to be frozen literals; they are now derived from
:mod:`repro.registry` **once, at import time** -- they are the paper's
fixed sweep dimensions, with the original names and panel orders
(``1d``/``2d``, ``rg``/``rr``/``rn``, ``min``/``adp``) preserved
bit-for-bit by registration order.  Surfaces that must see components
registered later (the CLI, the scenario parser, ``make_topology``)
query the registry live instead of these snapshots.
"""

from __future__ import annotations

from repro.registry import (
    RegistryError,
    SCALES,
    TopologySpec,
    build_topology,
    placement_registry,
    topology_registry,
)

#: Dragonfly-class systems under study (legacy aliases, Figure 7/9 order).
NETWORKS = tuple(
    alias
    for alias, name in topology_registry.aliases().items()
    if getattr(topology_registry.get(name), "has_groups", False)
)

#: Every registered fabric model, by canonical registry name.
ALL_TOPOLOGIES = topology_registry.names()

#: Placement policies, in the paper's panel order.
PLACEMENTS = placement_registry.names()

#: Routing algorithms of the dragonfly-class systems (the paper's sweep).
ROUTINGS = topology_registry.get("dragonfly1d").routings

#: The six placement-routing combinations, in Figure 7/9 axis order.
COMBOS = tuple(f"{p}-{r}" for r in ROUTINGS for p in PLACEMENTS)


def make_topology(network: str, scale: str = "mini"):
    """Instantiate a registered fabric model at the requested scale.

    ``network`` is any registry name or alias (``"1d"``, ``"2d"``,
    ``"fattree"``, ``"torus"``, ``"slimfly"``); ``scale`` picks the
    model's ``"mini"`` or ``"paper"`` preset.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {list(SCALES)}")
    try:
        return build_topology({"type": network, "scale": scale})
    except RegistryError:
        raise ValueError(
            f"unknown network {network!r}; expected one of "
            f"{sorted(set(ALL_TOPOLOGIES) | set(topology_registry.aliases()))}"
        ) from None


def topology_table(network: str, scale: str = "mini") -> dict[str, str]:
    """The scenario ``[topology]`` table: ``network`` sugar for the
    paper's dragonflies, the registry ``type`` form otherwise."""
    return {"network" if network in NETWORKS else "type": network, "scale": scale}


def topology_spec(network: str) -> TopologySpec:
    """The registry spec behind a network name or alias."""
    spec = topology_registry.get(network)
    assert isinstance(spec, TopologySpec)
    return spec


def default_horizon(scale: str = "mini") -> float:
    """Simulation horizon in seconds.

    The paper simulates long enough for every finite job to complete;
    at mini scale 50 ms comfortably covers the catalog's job lengths
    while keeping a full sweep in minutes.
    """
    return 0.05 if scale == "mini" else 0.5


def default_counter_window() -> float:
    """Per-app router counter window (paper: 0.5 ms, all scales)."""
    return 0.5e-3
