"""Dragonfly topology structure: link tables, gateways, Table II facts."""

import pytest

from repro.network.config import LinkClass
from repro.network.dragonfly import Dragonfly1D
from repro.network.dragonfly2d import Dragonfly2D


@pytest.fixture(scope="module")
def mini1d():
    return Dragonfly1D.mini()


@pytest.fixture(scope="module")
def mini2d():
    return Dragonfly2D.mini()


# -- Table II paper configurations -------------------------------------------


def test_paper_1d_matches_table2():
    t = Dragonfly1D.paper()
    d = t.describe()
    assert d["groups"] == 33
    assert d["routers_per_group"] == 32
    assert d["nodes_per_router"] == 8
    assert d["nodes_per_group"] == 256
    assert d["global_per_router"] == 4
    assert d["system_size"] == 8448


def test_paper_2d_matches_table2():
    t = Dragonfly2D.paper()
    d = t.describe()
    assert d["groups"] == 22
    assert d["routers_per_group"] == 96
    assert d["nodes_per_router"] == 4
    assert d["nodes_per_group"] == 384
    assert d["global_per_router"] == 7
    assert d["system_size"] == 8448
    assert t.rows == 6 and t.cols == 16


def test_paper_1d_group_pair_links_exact():
    # 32 routers x 4 global ports = 128 slots over 32 peers = 4 links/pair.
    t = Dragonfly1D.paper()
    assert t.links_per_group_pair == 4


def test_paper_2d_group_pair_links_exact():
    # 96 x 7 = 672 slots over 21 peers = 32 links/pair.
    t = Dragonfly2D.paper()
    assert t.links_per_group_pair == 32


def test_2d_has_more_links_than_1d_at_paper_scale():
    c1 = Dragonfly1D.paper().link_census()
    c2 = Dragonfly2D.paper().link_census()
    assert c2[LinkClass.LOCAL] > c1[LinkClass.LOCAL]
    assert c2[LinkClass.GLOBAL] > c1[LinkClass.GLOBAL]


def test_2d_has_more_links_than_1d_at_mini_scale(mini1d, mini2d):
    c1, c2 = mini1d.link_census(), mini2d.link_census()
    assert c2[LinkClass.LOCAL] > c1[LinkClass.LOCAL]
    assert c2[LinkClass.GLOBAL] > c1[LinkClass.GLOBAL]
    assert mini1d.n_nodes == mini2d.n_nodes == 144


def test_diameters():
    assert Dragonfly1D.paper().diameter() == 3
    assert Dragonfly2D.paper().diameter() == 5


# -- structural invariants ----------------------------------------------------


@pytest.mark.parametrize("topo_name", ["mini1d", "mini2d"])
def test_ports_are_consistent(topo_name, request):
    topo = request.getfixturevalue(topo_name)
    for r in range(topo.n_routers):
        for p in topo.router_ports[r]:
            assert p.pid == topo.router_ports[r].index(p) or topo.router_ports[r][p.pid] is p
            if p.link_class == LinkClass.TERMINAL:
                assert topo.router_of_node(p.peer_node) == r
            else:
                assert 0 <= p.peer_router < topo.n_routers
                same_group = topo.group_of(p.peer_router) == topo.group_of(r)
                if p.link_class == LinkClass.LOCAL:
                    assert same_group
                else:
                    assert not same_group


@pytest.mark.parametrize("topo_name", ["mini1d", "mini2d"])
def test_router_links_symmetric(topo_name, request):
    topo = request.getfixturevalue(topo_name)
    for r in range(topo.n_routers):
        for peer, ports in topo.ports_to_router[r].items():
            back = topo.ports_to_router[peer].get(r, [])
            assert len(back) == len(ports)


@pytest.mark.parametrize("topo_name", ["mini1d", "mini2d"])
def test_gateways_cover_all_group_pairs(topo_name, request):
    topo = request.getfixturevalue(topo_name)
    for g1 in range(topo.n_groups):
        for g2 in range(topo.n_groups):
            if g1 == g2:
                continue
            gws = topo.gateways[g1][g2]
            assert len(gws) == topo.links_per_group_pair
            for gw in gws:
                assert topo.group_of(gw) == g1
                assert g2 in topo.global_ports_to_group[gw]


@pytest.mark.parametrize("topo_name", ["mini1d", "mini2d"])
def test_every_node_has_terminal_port(topo_name, request):
    topo = request.getfixturevalue(topo_name)
    for node in range(topo.n_nodes):
        r = topo.router_of_node(node)
        assert node in topo.port_to_node[r]


def test_1d_local_all_to_all(mini1d):
    a = mini1d.routers_per_group
    for g in range(mini1d.n_groups):
        routers = list(mini1d.routers_of_group(g))
        for r in routers:
            local_peers = {
                p.peer_router
                for p in mini1d.router_ports[r]
                if p.link_class == LinkClass.LOCAL
            }
            assert local_peers == set(routers) - {r}


def test_1d_local_paths(mini1d):
    g0 = list(mini1d.routers_of_group(0))
    assert mini1d.local_paths(g0[0], g0[0]) == [[]]
    assert mini1d.local_paths(g0[0], g0[3]) == [[g0[3]]]
    with pytest.raises(ValueError):
        mini1d.local_paths(g0[0], mini1d.router_id(1, 0))


def test_group_node_router_identities(mini2d):
    t = mini2d
    for node in (0, 17, t.n_nodes - 1):
        r = t.router_of_node(node)
        assert node in t.nodes_of_router(r)
        g = t.group_of(r)
        assert node in t.nodes_of_group(g)
        assert t.router_id(g, t.local_index(r)) == r


def test_invalid_configurations_rejected():
    with pytest.raises(ValueError, match="at least 2 groups"):
        Dragonfly1D(n_groups=1)
    with pytest.raises(ValueError, match=">= 1"):
        Dragonfly1D(n_groups=3, routers_per_group=0)
    with pytest.raises(ValueError, match="cannot connect"):
        # 2 routers x 1 global port = 2 slots for 8 peers.
        Dragonfly1D(n_groups=9, routers_per_group=2, nodes_per_router=1, global_per_router=1)


def test_link_census_totals(mini1d):
    census = mini1d.link_census()
    assert census[LinkClass.TERMINAL] == mini1d.n_nodes
    # all-to-all: a*(a-1) directed per group
    a = mini1d.routers_per_group
    assert census[LinkClass.LOCAL] == mini1d.n_groups * a * (a - 1)
    assert sum(census.values()) == mini1d.n_links


def test_radix_counts_max_ports(mini1d):
    expected = (
        mini1d.nodes_per_router
        + (mini1d.routers_per_group - 1)
        + mini1d.global_per_router
    )
    assert mini1d.radix() == expected


# -- the flat port table ------------------------------------------------------


@pytest.mark.parametrize("network", ["1d", "2d", "torus", "fattree", "slimfly"])
def test_port_rows_are_the_ports(network):
    from repro.harness.configs import make_topology
    from repro.network.topology import PortGraph

    topo = make_topology(network)
    assert isinstance(topo, PortGraph)
    width = len(PortGraph.PORT_ROW)
    rows = topo.port_rows
    assert len(rows) == width * topo.n_links
    for r, ports in enumerate(topo.router_ports):
        for p in ports:
            at = width * p.link_id
            assert rows[at:at + width] == [r, p.pid, p.link_class,
                                           p.peer_router, p.peer_node]
