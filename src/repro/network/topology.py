"""Topology base classes: routers, ports, links and group wiring.

:class:`PortGraph` is what every fabric model is built on: routers,
their output ports and the directed link behind each port, kept twice
-- as the per-router tables the Python LPs and routing policies read,
and as one flat row per port (:attr:`PortGraph.port_rows`) that the
compiled kernel's adoption (:mod:`repro.accel.dispatch`) turns into its
own tables with whole-array operations.

Both dragonfly variants share the two-level structure of Section IV-A:
nodes attach to routers, routers form *groups*, and groups are all-to-all
connected through global links.  Subclasses of :class:`Topology` only
provide the intra-group (local) wiring and the intra-group path
enumeration; the global-link construction and lookup indices live here.
"""

from __future__ import annotations

from repro.network.config import LinkClass


class Port:
    """One output port of a router (a directed physical link)."""

    __slots__ = ("pid", "link_class", "peer_router", "peer_node", "link_id")

    def __init__(
        self,
        pid: int,
        link_class: LinkClass,
        peer_router: int = -1,
        peer_node: int = -1,
        link_id: int = -1,
    ) -> None:
        self.pid = pid
        self.link_class = link_class
        self.peer_router = peer_router
        self.peer_node = peer_node
        self.link_id = link_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = f"node {self.peer_node}" if self.peer_node >= 0 else f"router {self.peer_router}"
        return f"Port({self.pid}, {self.link_class.name}, -> {peer}, link {self.link_id})"


class PortGraph:
    """Routers, ports and links: the structural interface a
    :class:`~repro.network.fabric.NetworkFabric` consumes (every
    built-in fabric model subclasses it).

    Every port is added through :meth:`_add_port`, which creates its
    directed link (link ids are consecutive, one per port, in creation
    order) and records the port four ways: ``router_ports[r][pid]``
    (a :class:`Port`), ``ports_to_router[r][peer]`` (candidate ports
    towards a neighbour router, ascending) or ``port_to_node[r][node]``,
    ``link_class_of[link]``, and one row of :attr:`port_rows`.
    """

    #: Columns of :attr:`port_rows`.
    PORT_ROW = ("router", "port", "link_class", "peer_router", "peer_node")

    def _init_ports(self, n_routers: int) -> None:
        self.router_ports: list[list[Port]] = [[] for _ in range(n_routers)]
        self.ports_to_router: list[dict[int, list[int]]] = [dict() for _ in range(n_routers)]
        self.port_to_node: list[dict[int, int]] = [dict() for _ in range(n_routers)]
        self.n_links = 0  # directed links
        self.link_class_of: list[LinkClass] = []
        #: The ports flat: the ints of one :attr:`PORT_ROW` per port, in
        #: creation order -- so row ``i`` is link ``i``; ``peer_router``
        #: is -1 on a terminal port, ``peer_node`` -1 on the others.
        self.port_rows: list[int] = []

    def _add_port(self, router: int, link_class: LinkClass,
                  peer_router: int = -1, peer_node: int = -1) -> int:
        """Add one output port of ``router`` (towards ``peer_node`` when
        ``link_class`` is TERMINAL, else towards ``peer_router``) and
        its link; returns the port id."""
        ports = self.router_ports[router]
        pid = len(ports)
        lid = self.n_links
        self.n_links = lid + 1
        self.link_class_of.append(link_class)
        ports.append(Port(pid, link_class, peer_router, peer_node, lid))
        if link_class == LinkClass.TERMINAL:
            self.port_to_node[router][peer_node] = pid
        else:
            self.ports_to_router[router].setdefault(peer_router, []).append(pid)
        self.port_rows.extend((router, pid, link_class, peer_router, peer_node))
        return pid

    def radix(self) -> int:
        """Maximum number of ports on any router."""
        return max(len(ports) for ports in self.router_ports)

    def link_census(self) -> dict[LinkClass, int]:
        """Number of directed links per class."""
        census: dict[LinkClass, int] = {c: 0 for c in LinkClass}
        for c in self.link_class_of:
            census[c] += 1
        return census


class Topology(PortGraph):
    """Abstract dragonfly-class topology.

    Parameters
    ----------
    n_groups:
        Number of groups.
    routers_per_group:
        Routers in each group.
    nodes_per_router:
        Compute nodes attached to each router.
    global_per_router:
        Global (inter-group) channels per router (``h`` in dragonfly
        terminology).
    """

    name = "abstract"

    def __init__(
        self,
        n_groups: int,
        routers_per_group: int,
        nodes_per_router: int,
        global_per_router: int,
    ) -> None:
        if n_groups < 2:
            raise ValueError(f"need at least 2 groups, got {n_groups}")
        if routers_per_group < 1 or nodes_per_router < 1 or global_per_router < 1:
            raise ValueError("routers_per_group, nodes_per_router and global_per_router must be >= 1")
        self.n_groups = n_groups
        self.routers_per_group = routers_per_group
        self.nodes_per_router = nodes_per_router
        self.global_per_router = global_per_router
        self.n_routers = n_groups * routers_per_group
        self.n_nodes = self.n_routers * nodes_per_router
        self.nodes_per_group = routers_per_group * nodes_per_router

        global_slots = routers_per_group * global_per_router
        peers = n_groups - 1
        self.links_per_group_pair = global_slots // peers
        if self.links_per_group_pair < 1:
            raise ValueError(
                f"{global_slots} global channels per group cannot connect "
                f"{peers} peer groups (need at least one link per pair)"
            )

        # Port tables, populated by _build().
        self._init_ports(self.n_routers)
        self.global_ports_to_group: list[dict[int, list[int]]] = [dict() for _ in range(self.n_routers)]
        # gateways[g][g2] -> routers in g owning a global link towards g2
        self.gateways: list[dict[int, list[int]]] = [dict() for _ in range(n_groups)]

        self._build()

    # -- identity helpers ---------------------------------------------------
    def group_of(self, router: int) -> int:
        return router // self.routers_per_group

    def local_index(self, router: int) -> int:
        return router % self.routers_per_group

    def router_id(self, group: int, local_idx: int) -> int:
        return group * self.routers_per_group + local_idx

    def router_of_node(self, node: int) -> int:
        return node // self.nodes_per_router

    def group_of_node(self, node: int) -> int:
        return self.router_of_node(node) // self.routers_per_group

    def nodes_of_router(self, router: int) -> range:
        base = router * self.nodes_per_router
        return range(base, base + self.nodes_per_router)

    def nodes_of_group(self, group: int) -> range:
        base = group * self.nodes_per_group
        return range(base, base + self.nodes_per_group)

    def routers_of_group(self, group: int) -> range:
        base = group * self.routers_per_group
        return range(base, base + self.routers_per_group)

    # -- construction ------------------------------------------------------
    def _add_router_port(self, router: int, link_class: LinkClass, peer_router: int) -> None:
        pid = self._add_port(router, link_class, peer_router)
        if link_class == LinkClass.GLOBAL:
            peer_group = self.group_of(peer_router)
            self.global_ports_to_group[router].setdefault(peer_group, []).append(pid)

    def _build(self) -> None:
        # Terminal ports first so ejection lookup is O(1).
        for r in range(self.n_routers):
            for node in self.nodes_of_router(r):
                self._add_port(r, LinkClass.TERMINAL, peer_node=node)
        self._build_local_links()
        self._build_global_links()

    def _build_local_links(self) -> None:
        raise NotImplementedError

    def _build_global_links(self) -> None:
        """Wire groups all-to-all with ``links_per_group_pair`` links each.

        Global port slots inside a group are consumed router-by-router
        (router 0's ``h`` slots first), which yields the classic
        "consecutive" global-channel arrangement.  Any remainder slots
        left by uneven division stay unused, exactly like dark fiber.
        """
        h = self.global_per_router
        cursor = [0] * self.n_groups  # next free global slot in each group

        def take_slot(group: int) -> int:
            """Claim the next free (router, slot) in ``group``; return router id."""
            slot = cursor[group]
            if slot >= self.routers_per_group * h:
                raise AssertionError(f"group {group} ran out of global slots")
            cursor[group] = slot + 1
            return self.router_id(group, slot // h)

        for g1 in range(self.n_groups):
            for g2 in range(g1 + 1, self.n_groups):
                for _ in range(self.links_per_group_pair):
                    r1 = take_slot(g1)
                    r2 = take_slot(g2)
                    self._add_router_port(r1, LinkClass.GLOBAL, r2)
                    self._add_router_port(r2, LinkClass.GLOBAL, r1)
                    self.gateways[g1].setdefault(g2, []).append(r1)
                    self.gateways[g2].setdefault(g1, []).append(r2)

    # -- routing support ------------------------------------------------------
    def local_paths(self, src_router: int, dst_router: int) -> list[list[int]]:
        """Enumerate candidate intra-group paths from ``src`` to ``dst``.

        Each path is the list of routers *after* ``src`` up to and
        including ``dst``.  ``src`` and ``dst`` must share a group.
        Returns ``[[]]`` when ``src == dst``.
        """
        raise NotImplementedError

    def local_diameter(self) -> int:
        """Maximum intra-group hop count."""
        raise NotImplementedError

    def diameter(self) -> int:
        """Maximum router-to-router hop count under minimal routing."""
        # local to gateway + global + local to destination
        return 2 * self.local_diameter() + 1

    # -- descriptive ----------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Table II-style row describing this system."""
        return {
            "topology": self.name,
            "radix": self.radix(),
            "groups": self.n_groups,
            "routers_per_group": self.routers_per_group,
            "nodes_per_router": self.nodes_per_router,
            "nodes_per_group": self.nodes_per_group,
            "global_per_router": self.global_per_router,
            "system_size": self.n_nodes,
        }
