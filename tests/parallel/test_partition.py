"""Partition plans: topology-aware grouping, lookahead, clear errors."""

import pytest

from repro.network.config import LinkClass, NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fattree import FatTreeTopology
from repro.network.slimfly import SlimFlyTopology
from repro.network.torus import TorusTopology
from repro.parallel import (
    PartitionError,
    conservative_engine,
    min_cross_partition_latency,
    plan_partitions,
)


def _no_split(topo, plan, same_pred):
    """No two routers satisfying ``same_pred`` land in different partitions."""
    for r1 in range(topo.n_routers):
        for r2 in range(r1 + 1, topo.n_routers):
            if same_pred(r1, r2):
                assert plan.part_of_router[r1] == plan.part_of_router[r2]


def test_dragonfly_partitions_keep_groups_whole():
    topo = Dragonfly1D.mini()  # 9 groups x 8 routers
    plan = plan_partitions(topo, 3)
    assert plan.scheme == "group"
    _no_split(topo, plan, lambda a, b: topo.group_of(a) == topo.group_of(b))
    assert sorted(set(plan.part_of_router)) == [0, 1, 2]
    # Terminals follow their router.
    for node in range(topo.n_nodes):
        assert plan.part_of_node[node] == plan.part_of_router[topo.router_of_node(node)]


def test_dragonfly_cross_partition_links_are_global_only():
    topo = Dragonfly1D.mini()
    config = NetworkConfig()
    plan = plan_partitions(topo, 3)
    part = plan.part_of_router
    crossing = {
        p.link_class
        for r, ports in enumerate(topo.router_ports)
        for p in ports
        if p.peer_router >= 0 and part[p.peer_router] != part[r]
    }
    assert crossing == {LinkClass.GLOBAL}
    assert min_cross_partition_latency(topo, config, plan) == pytest.approx(
        config.global_latency + config.router_delay
    )


def test_fattree_partitions_keep_pods_whole():
    topo = FatTreeTopology(k=4)
    plan = plan_partitions(topo, 2)
    assert plan.scheme == "pod"
    _no_split(
        topo, plan,
        lambda a, b: (not topo.is_core(a) and not topo.is_core(b)
                      and topo.pod_of(a) == topo.pod_of(b)),
    )
    # Only aggregation<->core (GLOBAL) links may cross.
    part = plan.part_of_router
    config = NetworkConfig()
    for r, ports in enumerate(topo.router_ports):
        for p in ports:
            if p.peer_router >= 0 and part[p.peer_router] != part[r]:
                assert p.link_class == LinkClass.GLOBAL
    assert min_cross_partition_latency(topo, config, plan) == pytest.approx(
        config.global_latency + config.router_delay
    )


def test_torus_partitions_are_slabs_along_longest_dimension():
    topo = TorusTopology(dims=(2, 6, 3), nodes_per_router=1)
    plan = plan_partitions(topo, 3)
    assert plan.scheme == "slab"
    for r in range(topo.n_routers):
        assert plan.part_of_router[r] == topo.coords(r)[1] * 3 // 6
    config = NetworkConfig()
    assert min_cross_partition_latency(topo, config, plan) == pytest.approx(
        config.local_latency + config.router_delay
    )


def test_slimfly_falls_back_to_contiguous_blocks():
    topo = SlimFlyTopology(q=5)
    plan = plan_partitions(topo, 4)
    assert plan.scheme == "block"
    assert plan.part_of_router == tuple(
        r * 4 // topo.n_routers for r in range(topo.n_routers)
    )


def test_single_partition_plan_has_no_crossing_links():
    topo = Dragonfly1D.mini()
    plan = plan_partitions(topo, 1)
    assert min_cross_partition_latency(topo, NetworkConfig(), plan) is None


def test_plan_is_a_partition_fn_for_fabric_lp_ids():
    topo = Dragonfly1D.mini()
    plan = plan_partitions(topo, 3)
    assert plan(0) == plan.part_of_router[0]
    assert plan(topo.n_routers) == plan.part_of_node[0]
    with pytest.raises(LookupError, match="explicit partition"):
        plan(topo.n_routers + topo.n_nodes)  # not a fabric LP


def test_describe_reports_partition_sizes():
    plan = plan_partitions(Dragonfly1D.mini(), 3)
    d = plan.describe()
    assert d["scheme"] == "group"
    assert sum(d["routers_per_partition"]) == Dragonfly1D.mini().n_routers


# -- error paths -------------------------------------------------------------

def test_too_many_partitions_for_groups_is_a_clear_error():
    with pytest.raises(PartitionError, match="only 9 groups"):
        plan_partitions(Dragonfly1D.mini(), 10)


def test_too_many_partitions_for_pods_is_a_clear_error():
    with pytest.raises(PartitionError, match="only 4 pods"):
        plan_partitions(FatTreeTopology(k=4), 5)


def test_too_many_slabs_is_a_clear_error():
    with pytest.raises(PartitionError, match="only 4 rings"):
        plan_partitions(TorusTopology(dims=(4, 4, 4)), 5)


def test_partitions_below_one_is_a_clear_error():
    with pytest.raises(PartitionError, match=">= 1"):
        plan_partitions(Dragonfly1D.mini(), 0)


def test_derived_lookahead_matches_cross_partition_minimum():
    topo = Dragonfly1D.mini()
    config = NetworkConfig()
    eng = conservative_engine(topo, config, partitions=9)
    assert eng.lookahead == pytest.approx(config.global_latency + config.router_delay)
    assert eng.n_partitions == 9
    assert eng.plan.scheme == "group"


def test_single_partition_engine_gets_finite_lookahead():
    eng = conservative_engine(Dragonfly1D.mini(), NetworkConfig(), partitions=1)
    assert 0 < eng.lookahead < float("inf")
