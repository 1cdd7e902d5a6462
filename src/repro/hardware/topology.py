"""Machine topologies.

A :class:`Topology` is an undirected graph of :class:`Component` vertices
whose edges carry :class:`LinkModel` hops. Three builders cover the paper:

* :func:`smp_topology` -- one cache-coherent node (the Pthreads baseline);
* :func:`cluster_topology` -- N nodes on an InfiniBand switch, each node
  reaching its HCA over a PCIe hop (the paper's actual testbed, §III);
* :func:`hetero_node_topology` -- host + coprocessors over PCIe (the
  paper's target platform, Figure 1 and §V).
"""

from __future__ import annotations

import heapq

from repro.errors import TopologyError
from repro.hardware.node import Component, ComponentKind
from repro.hardware.specs import NodeSpec, CoprocessorSpec, PENRYN_NODE, XEON_PHI_KNC
from repro.interconnect.base import LinkModel
from repro.interconnect.infiniband import ib_qdr
from repro.interconnect.pcie import pcie_gen2_x8
from repro.interconnect.scif import scif_link


class Topology:
    """Component graph with routed, link-priced paths."""

    def __init__(self, name: str = "topology"):
        self.name = name
        #: Adjacency: ``links[a][b]`` is the link of edge a~b (both ways).
        self.links: dict[str, dict[str, LinkModel]] = {}
        self.components: dict[str, Component] = {}
        self._route_cache: dict[tuple[str, str], list[LinkModel]] = {}
        #: BFS parent/depth tables for the tree fast path in :meth:`route`;
        #: rebuilt lazily after every :meth:`connect`.
        self._tree: tuple[dict, dict] | None = None

    def add(self, component: Component) -> Component:
        if component.name in self.components:
            raise TopologyError(f"duplicate component {component.name!r}")
        self.components[component.name] = component
        self.links[component.name] = {}
        return component

    def connect(self, a: str, b: str, link: LinkModel) -> None:
        for name in (a, b):
            if name not in self.components:
                raise TopologyError(f"unknown component {name!r}")
        # Each edge gets its own link instance: contention resources are
        # per physical link, so two PCIe buses built from one template must
        # not share a queue.
        edge_link = link.with_(name=f"{link.name}[{a}~{b}]")
        self.links[a][b] = self.links[b][a] = edge_link
        self._route_cache.clear()
        self._tree = None

    def component(self, name: str) -> Component:
        try:
            return self.components[name]
        except KeyError:
            raise TopologyError(f"unknown component {name!r}") from None

    def route(self, src: str, dst: str) -> list[LinkModel]:
        """The sequence of links on the latency-shortest path src -> dst."""
        if src == dst:
            return []
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        for name in (src, dst):
            if name not in self.components:
                raise TopologyError(
                    f"unknown component {name!r} in route {src!r} -> {dst!r}")
        path = self._tree_path(src, dst) or self._shortest_path(src, dst)
        links = [self.links[u][v] for u, v in zip(path, path[1:])]
        self._route_cache[key] = links
        self._route_cache[(dst, src)] = list(reversed(links))
        return links

    def _tree_path(self, src: str, dst: str) -> list[str] | None:
        """The unique simple path when the component graph is a tree.

        All builders in this module produce trees (hub-and-spoke with
        per-node access hops), where the weighted shortest path *is* the
        only simple path -- so one BFS parent table replaces a Dijkstra per
        component pair. Returns None (fall back to Dijkstra) when the
        graph is not a tree.
        """
        links = self.links
        tables = self._tree
        if tables is None:
            if self.n_links != len(links) - 1:
                return None  # has a cycle (or is a forest): not a tree
            parent: dict[str, str | None] = {}
            depth: dict[str, int] = {}
            root = next(iter(links))
            parent[root] = None
            depth[root] = 0
            frontier = [root]
            while frontier:
                nxt = []
                for node in frontier:
                    d = depth[node] + 1
                    for nb in links[node]:
                        if nb not in depth:
                            parent[nb] = node
                            depth[nb] = d
                            nxt.append(nb)
                frontier = nxt
            if len(depth) != len(links):
                return None  # disconnected forest: let Dijkstra report it
            tables = (parent, depth)
            self._tree = tables
        parent, depth = tables
        if src not in depth or dst not in depth:
            raise TopologyError(f"no path {src!r} -> {dst!r}")
        # Climb both endpoints to their lowest common ancestor.
        up, down = [src], [dst]
        a, b = src, dst
        while depth[a] > depth[b]:
            a = parent[a]
            up.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            down.append(b)
        while a != b:
            a = parent[a]
            up.append(a)
            b = parent[b]
            down.append(b)
        down.pop()  # the meeting point is already the tail of `up`
        down.reverse()
        return up + down

    def _shortest_path(self, src: str, dst: str) -> list[str]:
        """Latency-shortest path on a graph with cycles (Dijkstra). Ties
        go to the path found first: candidates leave the queue in the
        order they entered it, and neighbours enter in connection order."""
        links = self.links
        best = {src: 0.0}
        parent: dict[str, str] = {}
        queue = [(0.0, 0, src)]
        pushed = 1
        while queue:
            dist, _, node = heapq.heappop(queue)
            if node == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return path[::-1]
            if dist > best[node]:
                continue  # a shorter way here was found after this entry
            for nb, link in links[node].items():
                reach = dist + link.latency
                if reach < best.get(nb, float("inf")):
                    best[nb] = reach
                    parent[nb] = node
                    heapq.heappush(queue, (reach, pushed, nb))
                    pushed += 1
        raise TopologyError(f"no path {src!r} -> {dst!r}")

    @property
    def n_links(self) -> int:
        return sum(len(adjacent) for adjacent in self.links.values()) // 2

    def compute_components(self) -> list[Component]:
        """Components that can host compute threads, in insertion order."""
        return [c for c in self.components.values()
                if c.kind in (ComponentKind.HOST, ComponentKind.COPROCESSOR,
                              ComponentKind.CLUSTER_NODE) and c.cores > 0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Topology {self.name}: {len(self.components)} components, "
                f"{self.n_links} links>")


def smp_topology(node: NodeSpec = PENRYN_NODE) -> Topology:
    """A single cache-coherent node; no interconnect at all."""
    topo = Topology(name=f"smp[{node.name}]")
    topo.add(Component("host", ComponentKind.HOST, node))
    return topo


def cluster_topology(n_nodes: int, node: NodeSpec = PENRYN_NODE) -> Topology:
    """N identical nodes on one switch; every message crosses
    PCIe -> IB -> switch -> IB -> PCIe, exactly as the paper describes: the
    testbed's QDR InfiniBand and a PCIe gen2 x8 hop to each HCA.

    The switch is a zero-core component; the IB link latency is split evenly
    across the two node<->switch edges so the end-to-end latency matches one
    published verbs latency.
    """
    if n_nodes < 2:
        raise TopologyError("a cluster needs at least 2 nodes")
    fabric = ib_qdr()
    host_hop = pcie_gen2_x8(contended=False)
    half = fabric.with_(name=fabric.name + "-half", latency=fabric.latency / 2.0)
    topo = Topology(name=f"cluster[{n_nodes}x{node.name}]")
    topo.add(Component("switch", ComponentKind.SWITCH))
    for i in range(n_nodes):
        name = f"node{i}"
        topo.add(Component(name, ComponentKind.CLUSTER_NODE, node))
        hca = f"hca{i}"
        topo.add(Component(hca, ComponentKind.SWITCH))
        topo.connect(name, hca, host_hop)
        topo.connect(hca, "switch", half)
    return topo


def hetero_node_topology(
    n_coprocessors: int = 1,
    host: NodeSpec = PENRYN_NODE,
    coprocessor: CoprocessorSpec = XEON_PHI_KNC,
    bus: LinkModel | None = None,
) -> Topology:
    """One host plus coprocessors on the PCIe bus (Figure 1).

    ``bus`` defaults to the SCIF path; pass
    :func:`repro.interconnect.scif.verbs_proxy_link` to model the naive port.
    """
    if n_coprocessors < 1:
        raise TopologyError("need at least one coprocessor")
    bus = bus or scif_link()
    topo = Topology(name=f"hetero[{host.name}+{n_coprocessors}x{coprocessor.name}]")
    topo.add(Component("host", ComponentKind.HOST, host))
    for i in range(n_coprocessors):
        name = f"mic{i}"
        topo.add(Component(name, ComponentKind.COPROCESSOR, coprocessor))
        topo.connect("host", name, bus)
    return topo
