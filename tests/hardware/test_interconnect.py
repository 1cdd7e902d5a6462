"""Tests for link models, the fabric, and SCL."""

import pytest

from repro.core import SamhitaConfig
from repro.hardware import cluster_topology, hetero_node_topology, smp_topology
from repro.interconnect import (
    Fabric,
    LinkModel,
    SCL,
    ib_qdr,
    pcie_gen2_x16,
    scif_link,
)
from repro.interconnect.scl import CONTROL_BYTES
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
from repro.runtime import Runtime
from repro.sim import Engine, Timeout


class TestLinkModel:
    def test_transfer_time_is_latency_plus_serialization(self):
        link = LinkModel("l", latency=1e-6, bandwidth=1e9)
        assert link.transfer_time(1000) == pytest.approx(1e-6 + 1000 / 1e9)

    def test_zero_bytes_costs_latency_only(self):
        link = LinkModel("l", latency=1e-6, bandwidth=1e9)
        assert link.transfer_time(0) == pytest.approx(1e-6)

    def test_mtu_segmentation_overhead(self):
        link = LinkModel("l", latency=0.0, bandwidth=1e9,
                         per_packet_overhead=1e-6, mtu=1000)
        # 2500 bytes => 3 packets
        assert link.transfer_time(2500) == pytest.approx(2500 / 1e9 + 3e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkModel("bad", latency=-1.0, bandwidth=1e9)
        with pytest.raises(ValueError):
            LinkModel("bad", latency=0.0, bandwidth=0.0)

    def test_with_returns_modified_copy(self):
        link = ib_qdr()
        slower = link.with_(bandwidth=1e9)
        assert slower.bandwidth == 1e9
        assert link.bandwidth != 1e9

    def test_qdr_page_costs_published_latency_plus_wire_time(self):
        # ~1.3 us verbs latency, ~3.2 GB/s payload, two 2 KiB packets.
        assert ib_qdr().transfer_time(4096) == pytest.approx(
            1.3e-6 + 4096 / 3.2e9 + 2 * 5e-9)


class TestFabric:
    def _run(self, gen):
        eng = self.eng
        proc = eng.process(gen, name="xfer")
        eng.run()
        return eng.now

    def test_path_time_uses_bottleneck_serialization(self):
        eng = Engine()
        topo = cluster_topology(2)
        fabric = Fabric(eng, topo)
        nbytes = 1 << 20
        t = fabric.path_time("node0", "node1", nbytes)
        links = topo.route("node0", "node1")
        latency = sum(l.latency for l in links)
        bottleneck = max(l.serialize_time(nbytes) for l in links)
        assert t == pytest.approx(latency + bottleneck)

    def test_transfer_advances_clock_by_path_time(self):
        self.eng = eng = Engine()
        fabric = Fabric(eng, cluster_topology(2))
        expected = fabric.path_time("node0", "node1", 4096)
        elapsed = self._run(fabric.transfer("node0", "node1", 4096))
        assert elapsed == pytest.approx(expected)

    def test_local_transfer_is_free(self):
        self.eng = eng = Engine()
        fabric = Fabric(eng, cluster_topology(2))
        elapsed = self._run(fabric.transfer("node0", "node0", 1 << 20))
        assert elapsed == 0.0

    def test_stats_account_messages_and_bytes(self):
        self.eng = eng = Engine()
        fabric = Fabric(eng, cluster_topology(2))
        self._run(fabric.transfer("node0", "node1", 4096, category="page"))
        assert fabric.stats.get("messages") == 1
        assert fabric.stats.get("bytes.page") == 4096

    def test_contended_bus_serializes_concurrent_transfers(self):
        eng = Engine()
        topo = hetero_node_topology()  # PCIe bus is contended
        fabric = Fabric(eng, topo)
        nbytes = 6 << 20  # ~1s/6 GB/s = 1 ms serialization each

        def client():
            yield from fabric.transfer("mic0", "host", nbytes)

        for _ in range(4):
            eng.process(client(), name="c")
        eng.run()
        serialize = topo.route("mic0", "host")[0].serialize_time(nbytes)
        # Four transfers cannot overlap their serialization.
        assert eng.now >= 4 * serialize

    def test_uncontended_mode_overlaps_transfers(self):
        eng = Engine()
        topo = hetero_node_topology(bus=scif_link(contended=False))
        fabric = Fabric(eng, topo)
        nbytes = 6 << 20

        def client():
            yield from fabric.transfer("mic0", "host", nbytes)

        for _ in range(4):
            eng.process(client(), name="c")
        eng.run()
        assert eng.now == pytest.approx(fabric.path_time("mic0", "host", nbytes))

    @pytest.mark.parametrize("build", [lambda: cluster_topology(4),
                                       hetero_node_topology, smp_topology],
                             ids=["cluster4", "hetero", "single-node"])
    def test_memoized_path_time_is_the_route_law_exactly(self, build):
        topo = build()
        fabric = Fabric(Engine(), topo)
        for src in topo.components:
            for dst in topo.components:
                links = topo.route(src, dst)
                for nbytes in (0, 1, 64, 4096, 3 * 4096 + 1):
                    law = (sum(l.latency for l in links)
                           + max((l.serialize_time(nbytes) for l in links),
                                 default=0.0))
                    assert fabric.path_time(src, dst, nbytes) == law
                    assert fabric.path_time(src, dst, nbytes) == law

    def test_path_time_memo_leaves_flight_pricing_to_transfers(self):
        # SCL.flight prices from _flights, which a route plan's first
        # transfer of a size registers; asking path_time first must not
        # stand in for that transfer.
        fabric = Fabric(Engine(), cluster_topology(2))
        expected = fabric.path_time("node0", "node1", 4096)
        assert ("node0", "node1", 4096) not in fabric._flights
        assert fabric.transfer_inline("node0", "node1", 4096, "page") is None
        assert fabric._flights[("node0", "node1", 4096)] == expected

    def test_link_utilization_reported(self):
        eng = Engine()
        fabric = Fabric(eng, hetero_node_topology())

        def client():
            yield from fabric.transfer("mic0", "host", 1 << 20)

        eng.process(client())
        eng.run()
        util = fabric.link_utilization()
        assert len(util) == 1
        assert next(iter(util.values())) > 0


class TestSCL:
    def _elapsed(self, op):
        # send/rdma_put may complete inline (returning None with the clock
        # already advanced) or return a generator for the remaining legs.
        eng = self.eng
        if op is not None:
            eng.process(op, name="scl-op")
            eng.run()
        return eng.now

    def test_rdma_get_is_request_plus_data(self):
        self.eng = eng = Engine()
        fabric = Fabric(eng, cluster_topology(2))
        scl = SCL(fabric)
        elapsed = self._elapsed(scl.rdma_get("node0", "node1", 4096))
        expected = (fabric.path_time("node0", "node1", CONTROL_BYTES)
                    + fabric.path_time("node1", "node0", 4096))
        assert elapsed == pytest.approx(expected)
        assert scl.stats.get("rdma_get") == 1

    def test_rdma_put_is_one_way(self):
        self.eng = eng = Engine()
        fabric = Fabric(eng, cluster_topology(2))
        scl = SCL(fabric)
        elapsed = self._elapsed(scl.rdma_put("node0", "node1", 4096))
        assert elapsed == pytest.approx(fabric.path_time("node0", "node1", 4096))

    def test_request_response_round_trip(self):
        self.eng = eng = Engine()
        fabric = Fabric(eng, cluster_topology(2))
        scl = SCL(fabric)
        elapsed = self._elapsed(scl.request_response("node0", "node1"))
        one_way = fabric.path_time("node0", "node1", CONTROL_BYTES)
        assert elapsed == pytest.approx(2 * one_way)

    def test_get_bigger_payload_costs_more(self):
        eng1, eng2 = Engine(), Engine()
        f1 = Fabric(eng1, cluster_topology(2))
        f2 = Fabric(eng2, cluster_topology(2))
        s1, s2 = SCL(f1), SCL(f2)
        eng1.process(s1.rdma_get("node0", "node1", 4096))
        eng2.process(s2.rdma_get("node0", "node1", 64 * 4096))
        eng1.run(), eng2.run()
        assert eng2.now > eng1.now


class TestFlight:
    """``SCL.flight``: a priced pure delay is charged and its arrival
    instant returned without moving the clock; anything else returns None
    *having charged nothing* (the caller then sends through
    ``transfer_inline``, which charges -- once)."""

    @staticmethod
    def _books(fabric, scl):
        return (dict(fabric.stats.counters), dict(fabric.traffic),
                dict(scl.stats.counters))

    def _priced(self, topo=None, **kwargs):
        eng = Engine()
        fabric = Fabric(eng, topo or cluster_topology(2), **kwargs)
        assert fabric.transfer_inline("node0", "node1", 4096, "page") is None
        return eng, fabric

    def test_a_priced_message_flies_and_is_charged_like_a_transfer(self):
        eng, fabric = self._priced()
        scl = SCL(fabric)
        sent = self._books(fabric, scl)
        start = eng.now
        at = scl.flight("node0", "node1", 4096, "page", op="rdma_put")
        assert eng.now == start  # the clock did not move
        assert at == start + fabric.path_time("node0", "node1", 4096)
        counters, traffic, ops = self._books(fabric, scl)
        assert counters == {k: 2 * v for k, v in sent[0].items()}
        assert traffic == {("node0", "node1"): 2 * 4096}
        assert ops == {"rdma_put": 1}
        # The arrival instant is the one the transfer would have reached.
        other_eng, other = self._priced()
        other.transfer_inline("node0", "node1", 4096, "page")
        assert other_eng.now == at

    def test_never_seen_size_or_route_touches_no_counter(self):
        eng, fabric = self._priced()
        scl = SCL(fabric)
        before = self._books(fabric, scl)
        assert scl.flight("node0", "node1", 4097, "page") is None
        assert scl.flight("node1", "node0", 4096, "page") is None
        assert self._books(fabric, scl) == before

    def test_local_delivery_touches_no_counter(self):
        eng = Engine()
        fabric = Fabric(eng, cluster_topology(2))
        scl = SCL(fabric)
        assert fabric.transfer_inline("node0", "node0", 64, "lock") is None
        before = self._books(fabric, scl)
        assert scl.flight("node0", "node0", 64, "lock") is None
        assert self._books(fabric, scl) == before

    def test_contended_bottleneck_touches_no_counter(self):
        eng = Engine()
        fabric = Fabric(eng, hetero_node_topology())
        scl = SCL(fabric)
        eng.process(fabric.transfer("mic0", "host", 4096, "page"))
        eng.run()
        before = self._books(fabric, scl)
        assert scl.flight("mic0", "host", 4096, "page") is None
        assert self._books(fabric, scl) == before
        # The same bus built uncontended is a pure delay.
        free = Fabric(Engine(),
                      hetero_node_topology(bus=scif_link(contended=False)))
        assert free.transfer_inline("mic0", "host", 4096, "page") is None
        assert SCL(free).flight("mic0", "host", 4096, "page") is not None

    def test_armed_injector_touches_no_counter(self):
        from repro.faults import FaultInjector, FaultPlan

        eng, fabric = self._priced()
        scl = SCL(fabric)
        assert scl.flight("node0", "node1", 4096, "page") is not None
        fabric.attach_injector(FaultInjector(FaultPlan(seed=3)))
        before = self._books(fabric, scl)
        assert scl.flight("node0", "node1", 4096, "page") is None
        # ...nor does a transfer under the injector price one.
        assert fabric.transfer_inline("node0", "node1", 8192, "page") is None
        assert scl.flight("node0", "node1", 8192, "page") is None
        after = self._books(fabric, scl)
        assert after[0]["messages"] == before[0]["messages"] + 1
        assert after[2] == before[2]


class TestTrafficMatrix:
    """Per-flow byte accounting on the paper's cluster (node0 is the
    manager, node1 the memory server)."""

    @pytest.fixture(scope="class")
    def system(self):
        rt = Runtime("samhita", n_threads=4,
                     config=SamhitaConfig(functional=False))
        spawn_microbench(rt, MicrobenchParams(
            N=4, M=2, S=2, B=256, allocation=Allocation.GLOBAL_STRIDED))
        rt.run()
        return rt.backend.system

    def test_memory_server_is_the_top_talker(self, system):
        fabric = system.fabric
        assert fabric.stats.get("bytes.page") > 0
        (src, _), _ = fabric.top_talkers(1)[0]
        assert src == "node1"

    def test_matrix_accessors(self, system):
        fabric = system.fabric
        talkers = fabric.top_talkers(5)
        assert talkers and all(v > 0 for _, v in talkers)
        # The memory server (node1) dominates outbound bytes.
        assert fabric.out_bytes("node1") > fabric.out_bytes("node0")
        total_in = sum(fabric.in_bytes(c) for c in system.topology.components)
        total_out = sum(fabric.out_bytes(c) for c in system.topology.components)
        assert total_in == total_out == fabric.stats.get("bytes")
