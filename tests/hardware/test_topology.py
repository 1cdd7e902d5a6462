"""Tests for topology builders and routing."""

import inspect

import pytest

from repro.core import SamhitaSystem
from repro.errors import TopologyError
from repro.hardware import (
    Component,
    ComponentKind,
    Topology,
    cluster_topology,
    hetero_node_topology,
    smp_topology,
)
from repro.interconnect import ib_qdr, scif_link, verbs_proxy_link


class TestTopologyCore:
    def test_duplicate_component_rejected(self):
        topo = Topology()
        topo.add(Component("a", ComponentKind.SWITCH))
        with pytest.raises(TopologyError):
            topo.add(Component("a", ComponentKind.SWITCH))

    def test_connect_unknown_component_rejected(self):
        topo = Topology()
        topo.add(Component("a", ComponentKind.SWITCH))
        with pytest.raises(TopologyError):
            topo.connect("a", "ghost", ib_qdr())

    def test_route_to_self_is_empty(self):
        topo = smp_topology()
        assert topo.route("host", "host") == []

    def test_route_unknown_endpoint_rejected(self):
        topo = smp_topology()
        with pytest.raises(TopologyError):
            topo.route("host", "ghost")

    def test_no_path_rejected(self):
        topo = Topology()
        topo.add(Component("a", ComponentKind.SWITCH))
        topo.add(Component("b", ComponentKind.SWITCH))
        with pytest.raises(TopologyError):
            topo.route("a", "b")

    def test_component_lookup(self):
        topo = smp_topology()
        assert topo.component("host").kind is ComponentKind.HOST
        with pytest.raises(TopologyError):
            topo.component("nope")


class TestSMP:
    def test_single_component_with_cores(self):
        topo = smp_topology()
        assert list(topo.components) == ["host"]
        assert topo.component("host").cores == 8
        assert topo.compute_components() == [topo.component("host")]


class TestCluster:
    def test_six_node_paper_testbed(self):
        topo = cluster_topology(6)
        nodes = [c for c in topo.components.values()
                 if c.kind is ComponentKind.CLUSTER_NODE]
        assert len(nodes) == 6
        assert all(n.cores == 8 for n in nodes)

    def test_route_crosses_pcie_ib_switch_ib_pcie(self):
        topo = cluster_topology(4)
        links = topo.route("node0", "node3")
        names = [l.name for l in links]
        # pcie, half-IB, half-IB, pcie
        assert len(links) == 4
        assert names[0].startswith("pcie")
        assert "ib" in names[1] and "ib" in names[2]
        assert names[3].startswith("pcie")

    def test_end_to_end_latency_matches_published_qdr(self):
        topo = cluster_topology(2)
        links = topo.route("node0", "node1")
        latency = sum(l.latency for l in links)
        # Full IB latency plus two PCIe hops.
        assert latency == pytest.approx(1.3e-6 + 2 * 0.3e-6)

    def test_route_is_symmetric(self):
        topo = cluster_topology(3)
        fwd = topo.route("node0", "node2")
        back = topo.route("node2", "node0")
        assert [l.name for l in back] == [l.name for l in reversed(fwd)]

    def test_the_cluster_fabric_is_fixed(self):
        # QDR InfiniBand and PCIe gen2 x8 are the paper's testbed; neither
        # cluster_topology nor SamhitaSystem.cluster takes a link argument.
        assert list(inspect.signature(cluster_topology).parameters) == [
            "n_nodes", "node"]
        assert list(inspect.signature(SamhitaSystem.cluster).parameters) == [
            "n_threads", "config", "node"]

    def test_too_small_cluster_rejected(self):
        with pytest.raises(TopologyError):
            cluster_topology(1)

    def test_compute_components_excludes_switches(self):
        topo = cluster_topology(3)
        names = [c.name for c in topo.compute_components()]
        assert names == ["node0", "node1", "node2"]


class TestHeteroNode:
    def test_figure1_shape(self):
        topo = hetero_node_topology(n_coprocessors=2)
        assert topo.component("host").kind is ComponentKind.HOST
        assert topo.component("mic0").kind is ComponentKind.COPROCESSOR
        assert len(topo.route("host", "mic1")) == 1

    def test_scif_path_faster_than_verbs_proxy(self):
        scif = hetero_node_topology(bus=scif_link())
        proxy = hetero_node_topology(bus=verbs_proxy_link())
        page = 4096
        t_scif = sum(l.transfer_time(page) for l in scif.route("host", "mic0"))
        t_proxy = sum(l.transfer_time(page) for l in proxy.route("host", "mic0"))
        assert t_scif < t_proxy

    def test_zero_coprocessors_rejected(self):
        with pytest.raises(TopologyError):
            hetero_node_topology(n_coprocessors=0)

    def test_coprocessor_has_many_cores(self):
        topo = hetero_node_topology()
        assert topo.component("mic0").cores >= 32


def _cyclic_topology() -> Topology:
    """A ring of five switches with a chord, spokes to two hosts, and two
    equal-latency ways round (ties must break the way networkx breaks
    them: first found, neighbours in connection order)."""
    topo = Topology("cyclic")
    for name in ("a", "b", "c", "d", "e", "x", "y"):
        topo.add(Component(name, ComponentKind.SWITCH))
    fast, slow = ib_qdr(), ib_qdr().with_(latency=5e-6)
    for u, v, link in (("a", "b", fast), ("b", "c", fast), ("c", "d", fast),
                       ("d", "e", fast), ("e", "a", fast), ("b", "e", slow),
                       ("x", "a", slow), ("y", "c", fast), ("y", "d", fast)):
        topo.connect(u, v, link)
    return topo


class TestRoutesMatchNetworkx:
    """The adjacency-dict router against ``networkx.shortest_path`` (the
    router this module used to delegate to), on every builder and on a
    graph with cycles and latency ties."""

    @pytest.mark.parametrize("build", [
        smp_topology,
        lambda: cluster_topology(2),
        lambda: cluster_topology(7),
        lambda: hetero_node_topology(1),
        lambda: hetero_node_topology(4),
        _cyclic_topology,
    ], ids=["smp", "cluster2", "cluster7", "hetero1", "hetero4", "cyclic"])
    def test_every_pair(self, build):
        nx = pytest.importorskip("networkx")
        topo = build()
        graph = nx.Graph()
        graph.add_nodes_from(topo.components)
        seen = set()
        for u, adjacent in topo.links.items():
            for v, link in adjacent.items():
                if (v, u) not in seen:  # each edge once, in connection order
                    seen.add((u, v))
                    graph.add_edge(u, v, link=link, weight=link.latency)
        for src in topo.components:
            for dst in topo.components:
                if src == dst:
                    continue
                path = nx.shortest_path(graph, src, dst, weight="weight")
                want = [graph.edges[u, v]["link"]
                        for u, v in zip(path, path[1:])]
                assert topo.route(src, dst) == want, (src, dst)

    def test_cyclic_graph_takes_the_dijkstra_path(self):
        topo = _cyclic_topology()
        assert topo._tree_path("x", "y") is None
        # x-a is slow either way; a-b-c-y (3 fast hops) ties with
        # a-e-d-y, and loses to neither the b-e chord nor a longer way.
        assert len(topo.route("x", "y")) == 4
        topo.add(Component("island", ComponentKind.SWITCH))
        with pytest.raises(TopologyError):
            topo.route("x", "island")
