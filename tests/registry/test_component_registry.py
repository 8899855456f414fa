"""Component registry: rosters, parameter validation, capability errors."""

import pytest

from repro.network.dragonfly import Dragonfly1D
from repro.network.routing import AdaptiveRouting, MinimalRouting
from repro.network.torus import TorusTopology
from repro.registry import (
    Param,
    RegistryError,
    RoutingSpec,
    TopologySpec,
    all_routing_names,
    available_placements,
    available_routings,
    build_topology,
    capabilities_of,
    check_placement,
    placement_registry,
    register_routing,
    register_topology,
    resolve_routing,
    topology_registry,
)


def test_builtin_roster_and_aliases():
    assert topology_registry.names() == (
        "dragonfly1d", "dragonfly2d", "fattree", "torus", "slimfly"
    )
    assert topology_registry.get("1d").name == "dragonfly1d"
    assert topology_registry.get("2D").name == "dragonfly2d"
    assert placement_registry.names() == ("rg", "rr", "rn")
    assert set(all_routing_names()) == {"min", "adp", "dmodk", "random", "adaptive", "dor"}


def test_build_topology_presets_match_legacy_classmethods():
    mini = build_topology({"type": "1d", "scale": "mini"})
    assert isinstance(mini, Dragonfly1D)
    assert mini.describe() == Dragonfly1D.mini().describe()
    paper = build_topology({"type": "dragonfly1d", "scale": "paper"})
    assert paper.describe() == Dragonfly1D.paper().describe()
    assert build_topology({"type": "fattree"}).n_nodes == 128  # mini default


def test_build_topology_param_overlay():
    t = build_topology({"type": "dragonfly1d", "scale": "mini", "n_groups": 4})
    assert t.n_groups == 4 and t.routers_per_group == 8  # preset kept
    t2 = build_topology({"type": "torus", "dims": [2, 2], "nodes_per_router": 3})
    assert t2.n_routers == 4 and t2.n_nodes == 12


@pytest.mark.parametrize("table,match", [
    ({"dims": [4]}, "missing 'type' key"),
    ({"type": "mobius"}, "unknown topology 'mobius'"),
    ({"type": "fattree", "k": "wide"}, "topology.k: expected an integer"),
    ({"type": "fattree", "kk": 8}, "unknown parameter 'kk'"),
    ({"type": "torus", "dims": [4, "x"]}, "array of integers"),
    ({"type": "torus", "dims": [4, 1]}, "must be >= 2"),
    ({"type": "torus", "scale": "huge"}, "unknown scale 'huge'"),
])
def test_build_topology_errors(table, match):
    with pytest.raises(RegistryError, match=match):
        build_topology(table)


def test_resolve_routing_dispatches_per_topology():
    df = build_topology({"type": "1d"})
    torus = build_topology({"type": "torus"})
    probe = lambda r, p: 0
    from repro.network.config import NetworkConfig

    cfg = NetworkConfig()
    assert isinstance(resolve_routing("min", df)(df, cfg, probe, 1), MinimalRouting)
    assert isinstance(resolve_routing("adp", df)(df, cfg, probe, 1), AdaptiveRouting)
    # 'min' means something different on a slim fly than on a dragonfly.
    sf = build_topology({"type": "slimfly"})
    assert resolve_routing("min", sf)(sf, cfg, probe, 1).name == "slimfly-min"
    with pytest.raises(RegistryError,
                       match=r"routing 'adp' is not available on topology 'torus'; "
                             r"choose from \['dor'\]"):
        resolve_routing("adp", torus)
    with pytest.raises(RegistryError, match=r"'turbo' is not one of \['dor'\]"):
        resolve_routing("turbo", torus)


def test_available_components_per_topology():
    assert available_routings("fattree") == ("dmodk", "random", "adaptive")
    assert available_routings("1d") == ("min", "adp")
    assert available_placements("torus") == ("rr", "rn")
    assert available_placements("fattree") == ("rn",)
    assert available_placements("dragonfly2d") == ("rg", "rr", "rn")


def test_check_placement_capability_errors():
    torus = build_topology({"type": "torus"})
    fattree = build_topology({"type": "fattree"})
    check_placement("rn", torus)
    check_placement("rr", torus)
    with pytest.raises(RegistryError, match="requires dragonfly-style group structure"):
        check_placement("rg", torus)
    with pytest.raises(RegistryError, match="uniform node attachment"):
        check_placement("rr", fattree)
    with pytest.raises(RegistryError, match="'best' is not one of"):
        check_placement("best", torus)


def test_capabilities_structural_fallback_for_unregistered_topologies():
    class Duck:
        name = "duck"
        n_routers = 4
        nodes_per_router = 2
        n_nodes = 8

    caps = capabilities_of(Duck())
    assert caps.uniform_nodes and not caps.has_groups and caps.label == "duck"
    # A registered instance answers from its spec, not structurally.
    caps = capabilities_of(build_topology({"type": "fattree"}))
    assert not caps.uniform_nodes and not caps.has_groups


def test_register_topology_validates_presets_and_defaults():
    with pytest.raises(ValueError, match="lacks presets"):
        register_topology(TopologySpec(
            name="halfbaked", summary="", cls=TorusTopology,
            presets={"mini": {}}, routings=("dor",), default_routing="dor",
        ))
    with pytest.raises(ValueError, match="default_routing"):
        register_topology(TopologySpec(
            name="halfbaked", summary="", cls=TorusTopology,
            presets={"mini": {}, "paper": {}},
            routings=("dor",), default_routing="warp",
        ))


def test_register_custom_component_reaches_every_surface():
    """The docs/registry.md story: one registration, usable everywhere."""

    class RingTopology(TorusTopology):
        name = "ring"

        def __init__(self, length: int = 8, nodes_per_router: int = 1) -> None:
            super().__init__((length,), nodes_per_router)

    try:
        register_topology(TopologySpec(
            name="ring",
            summary="1-D torus",
            params=(Param("length", "int", "ring size", minimum=2),
                    Param("nodes_per_router", "int", minimum=1)),
            cls=RingTopology,
            presets={"mini": dict(length=8, nodes_per_router=1),
                     "paper": dict(length=64, nodes_per_router=2)},
            routings=("dor",),
            default_routing="dor",
        ))
        register_routing("ring", RoutingSpec(
            "dor", "dimension-order", factory=lambda t, c, p, stream_id=0:
            __import__("repro.network.torus", fromlist=["TorusDORRouting"])
            .TorusDORRouting(t, c, p, stream_id)))
        ring = build_topology({"type": "ring", "length": 6})
        assert ring.n_routers == 6
        assert available_routings("ring") == ("dor",)
        assert available_placements("ring") == ("rr", "rn")

        from repro.scenario import parse_scenario, run_scenario

        spec = parse_scenario({
            "topology": {"type": "ring", "length": 6, "nodes_per_router": 2},
            "placement": "rr",
            "horizon": 0.005,
            "jobs": [{"app": "ur", "nranks": 8, "params": {"iters": 1}}],
        }, name="ring-demo")
        assert spec.routing == "dor"  # topology's registry default
        result = run_scenario(spec)
        assert result.job("ur").started
    finally:
        topology_registry._specs.pop("ring", None)
        from repro.registry.routings import _ROUTINGS

        _ROUTINGS.pop(("ring", "dor"), None)


def test_workload_manager_rejects_capability_mismatches():
    from repro.registry import RegistryError
    from repro.union.manager import WorkloadManager
    from repro.workloads.uniform_random import uniform_random

    mgr = WorkloadManager(build_topology({"type": "torus"}), routing="adp",
                          placement="rn")
    mgr.add_program_job("ur", 4, uniform_random, {"iters": 1})
    with pytest.raises(RegistryError, match="routing 'adp' is not available"):
        mgr.run(until=0.01)

    mgr = WorkloadManager(build_topology({"type": "fattree"}), routing="dmodk",
                          placement="rr")
    mgr.add_program_job("ur", 4, uniform_random, {"iters": 1})
    with pytest.raises(RegistryError, match="placement 'rr' is not available"):
        mgr.run(until=0.01)


def test_routing_spec_lookup_uses_canonical_errors():
    from repro.registry import routing_spec

    assert routing_spec("torus", "dor").name == "dor"
    with pytest.raises(RegistryError, match="routing 'adp' is not available"):
        routing_spec("torus", "adp")


def test_register_topology_rejects_unsupported_default_placement():
    with pytest.raises(ValueError, match="default_placement 'rg'"):
        register_topology(TopologySpec(
            name="groupless", summary="", cls=TorusTopology,
            presets={"mini": {}, "paper": {}},
            routings=("dor",), default_routing="dor",
            default_placement="rg", has_groups=False,
        ))
    assert "groupless" not in topology_registry


def test_registered_custom_placement_reaches_the_manager():
    """register_placement once -> scenario parse + manager run both see it."""
    from repro.registry import PlacementSpec, placement_registry, register_placement
    from repro.scenario import parse_scenario, run_scenario

    def packed(topo, job_sizes, seed=0, allowed_nodes=None):
        pool = sorted(allowed_nodes) if allowed_nodes is not None else list(range(topo.n_nodes))
        out, cursor = [], 0
        for size in job_sizes:
            out.append(pool[cursor:cursor + size])
            cursor += size
        return out

    try:
        register_placement(PlacementSpec("pack", "first-fit packing", func=packed))
        spec = parse_scenario({
            "topology": {"type": "torus", "dims": [2, 2, 2]},
            "placement": "pack",
            "horizon": 0.005,
            "jobs": [{"app": "ur", "nranks": 4, "params": {"iters": 1}},
                     {"app": "ur", "nranks": 4, "params": {"iters": 1},
                      "name": "late", "arrival": 0.001}],
        }, name="packed")
        result = run_scenario(spec)
        app = result.outcome.app("ur")
        assert app.nodes == [0, 1, 2, 3]  # packed, not shuffled
        assert result.job("late").started
    finally:
        placement_registry._specs.pop("pack", None)


# -- engine registry ---------------------------------------------------------

def test_engine_registry_roster():
    from repro.registry import available_engines, engine_axes, engine_registry

    assert available_engines() == ("sequential", "conservative",
                                   "mp-conservative",
                                   "accel-sequential", "accel-conservative")
    assert engine_registry.canonical("seq") == "sequential"
    assert engine_registry.canonical("yawns") == "conservative"
    assert engine_registry.canonical("mp") == "mp-conservative"
    assert engine_registry.canonical("fast") == "accel-sequential"
    assert engine_registry.canonical("fast-yawns") == "accel-conservative"
    assert len(engine_registry.aliases()) == 5
    seq = engine_registry.get("sequential")
    assert seq.axes == engine_axes()
    assert not seq.partitioned and seq.param_names() == ()
    spec = engine_registry.get("conservative")
    assert spec.axes == engine_axes(windowing="yawns")
    assert spec.partitioned
    assert spec.param_names() == ("partitions",)
    mp = engine_registry.get("mp-conservative")
    assert mp.axes == engine_axes(windowing="yawns", layout="mp")
    assert mp.partitioned
    assert mp.param_names() == ("partitions", "backend")
    assert {p.name: p for p in mp.params}["backend"].choices == ("mp", "inline")
    acc = engine_registry.get("accel-sequential")
    assert acc.axes == engine_axes(backend="compiled")
    assert not acc.partitioned
    assert acc.param_names() == ()
    acc_con = engine_registry.get("accel-conservative")
    assert acc_con.axes == engine_axes(windowing="yawns", backend="compiled")
    assert acc_con.partitioned
    assert acc_con.param_names() == ("partitions",)
    # An [engine] table names an engine and a partition count (plus the
    # mp transport); nothing the code derives itself is settable.
    assert sum(len(s.params) for s in engine_registry) == 4
    with pytest.raises(ValueError, match="windowing"):
        engine_axes(windowing="timewarp")


def test_build_engine_dispatches_and_validates():
    from repro.pdes.conservative import ConservativeEngine
    from repro.pdes.sequential import SequentialEngine
    from repro.registry import RegistryError, build_engine

    topo = Dragonfly1D.mini()
    assert isinstance(build_engine({"type": "sequential"}, topo), SequentialEngine)
    eng = build_engine({"type": "conservative", "partitions": 3}, topo)
    assert isinstance(eng, ConservativeEngine)
    assert eng.n_partitions == 3
    with pytest.raises(RegistryError, match="unknown engine"):
        build_engine({"type": "warp"}, topo)
    with pytest.raises(RegistryError, match="missing 'type'"):
        build_engine({"partitions": 2}, topo)
    with pytest.raises(RegistryError, match="must be >= 1"):
        build_engine({"type": "conservative", "partitions": 0}, topo)
    # Structural mismatches carry the registry key path.
    with pytest.raises(RegistryError, match="engine: cannot split"):
        build_engine({"type": "conservative", "partitions": 12}, topo)


def test_register_custom_engine_reaches_cli_and_scenarios():
    from repro.registry import (
        EngineSpec,
        build_engine,
        engine_axes,
        engine_registry,
        register_engine,
    )
    from repro.scenario import parse_scenario

    # A new preset is a new point on the axes; _build_preset builds it.
    register_engine(EngineSpec(
        name="turbo",
        summary="test engine",
        params=(Param("partitions", "int", "LP partitions",
                      default=2, minimum=1),),
        axes=engine_axes(windowing="yawns", backend="compiled"),
    ))
    try:
        data = {"jobs": [{"app": "nn"}], "engine": {"type": "turbo"}}
        assert parse_scenario(data).engine == {"type": "turbo"}
        eng = build_engine({"type": "turbo"}, Dragonfly1D.mini())
        assert eng.describe()["partitions"] == 2
        assert eng.describe()["lookahead"] > 0
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--engine", "turbo"])
        assert args.engine == "turbo"
    finally:
        engine_registry._specs.pop("turbo", None)


@pytest.mark.parametrize("table", [
    {"type": "accel-sequential", "backend": "python"},
    {"type": "conservative", "lookahead": 1e-7},
], ids=["backend", "lookahead"])
def test_removed_engine_params_are_unknown(table):
    from repro.registry import RegistryError, build_engine
    from repro.scenario import ScenarioError, parse_scenario

    (param,) = set(table) - {"type"}
    match = rf"engine\.{param}: unknown parameter"
    with pytest.raises(RegistryError, match=match):
        build_engine(table, Dragonfly1D.mini())
    # The scenario parser reports the registry's message verbatim.
    with pytest.raises(ScenarioError, match=match):
        parse_scenario({"jobs": [{"app": "nn"}], "engine": table})
