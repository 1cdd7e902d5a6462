"""Tests for thread placement policies."""

import pytest

from repro.core import PlacementPolicy, SamhitaConfig, SamhitaSystem
from repro.core.placement import choose_component
from repro.errors import BackendError


class TestChooseComponent:
    COMPONENTS = ["a", "b"]
    CORES = {"a": 2, "b": 2}

    def test_packed_fills_first_component(self):
        load = {}
        picks = []
        for _ in range(4):
            comp = choose_component(PlacementPolicy.PACKED, self.COMPONENTS,
                                    self.CORES, load)
            load[comp] = load.get(comp, 0) + 1
            picks.append(comp)
        assert picks == ["a", "a", "b", "b"]

    def test_round_robin_deals_across_components(self):
        load = {}
        picks = []
        for _ in range(4):
            comp = choose_component(PlacementPolicy.ROUND_ROBIN,
                                    self.COMPONENTS, self.CORES, load)
            load[comp] = load.get(comp, 0) + 1
            picks.append(comp)
        assert picks == ["a", "b", "a", "b"]

    def test_exhaustion_raises(self):
        load = {"a": 2, "b": 2}
        for policy in PlacementPolicy:
            with pytest.raises(BackendError):
                choose_component(policy, self.COMPONENTS, self.CORES, load)


class TestSystemPlacement:
    def test_cluster_default_packs_like_the_paper(self):
        system = SamhitaSystem.cluster(n_threads=16)
        for _ in range(16):
            system.add_thread()
        comps = {system.component_of(t) for t in system.thread_ids[:8]}
        assert len(comps) == 1  # first 8 threads share one node

    def test_hetero_round_robin_spreads_across_coprocessors(self):
        system = SamhitaSystem.hetero(n_coprocessors=2,
                                      placement=PlacementPolicy.ROUND_ROBIN)
        tids = [system.add_thread() for _ in range(8)]
        per_mic = {}
        for t in tids:
            per_mic.setdefault(system.component_of(t), []).append(t)
        assert sorted(len(v) for v in per_mic.values()) == [4, 4]

    def test_explicit_component_respected(self):
        system = SamhitaSystem.hetero(n_coprocessors=2)
        tid = system.add_thread(component="mic1")
        assert system.component_of(tid) == "mic1"

    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_kept_load_places_like_fresh_dicts(self, policy):
        """The system keeps each component's core count and load as threads
        are added; explicit placements count. Each thread lands where
        ``choose_component`` over dicts rebuilt from the compute servers
        would put it."""
        system = SamhitaSystem.cluster(n_threads=24)  # 3 nodes x 8 cores
        system.placement = policy
        comps = list(system.compute_servers)
        explicit = {1: comps[2], 2: comps[2], 5: comps[0], 9: comps[1]}
        for step in range(23):
            cores = {c: system.topology.component(c).cores for c in comps}
            load = {c: len(system.compute_servers[c].threads) for c in comps}
            want = explicit.get(step) or choose_component(policy, comps,
                                                          cores, load)
            tid = system.add_thread(component=explicit.get(step))
            assert system.component_of(tid) == want

    def test_unknown_component_rejected(self):
        system = SamhitaSystem.hetero(n_coprocessors=1)
        with pytest.raises(BackendError):
            system.add_thread(component="mic7")

    @pytest.mark.parametrize("machine", ["hetero", "single_node"])
    def test_one_server_machines_reject_more_servers(self, machine):
        # The host is the only memory server: a config asking for more is
        # refused, not quietly rewritten.
        config = SamhitaConfig(n_memory_servers=2)
        with pytest.raises(BackendError, match="n_memory_servers=2"):
            getattr(SamhitaSystem, machine)(config=config)

    def test_one_server_machines_host_every_manager_shard(self):
        config = SamhitaConfig(manager_shards=2)
        for system in (SamhitaSystem.hetero(config=config),
                       SamhitaSystem.single_node(config=config)):
            assert [m.component for m in system.managers] == ["host", "host"]

    def test_spreading_relieves_pcie_contention(self):
        """Two coprocessors give two PCIe buses: spreading the same thread
        count across them beats packing them onto one."""
        import numpy as np

        def run(placement):
            config = SamhitaConfig(functional=False)
            system = SamhitaSystem.hetero(n_coprocessors=2, config=config,
                                          placement=placement)
            tids = [system.add_thread() for _ in range(8)]
            bar = system.create_barrier(len(tids))

            def body(tid):
                addr = yield from system.malloc(tid, 512 << 10)
                # Stream enough data to saturate a PCIe bus.
                for off in range(0, 512 << 10, 4096):
                    yield from system.mem_read(tid, addr + off, 8)
                yield from system.barrier_wait(tid, bar)

            for tid in tids:
                system.process(body(tid), name=f"t{tid}")
            return system.run()

        packed = run(PlacementPolicy.PACKED)
        spread = run(PlacementPolicy.ROUND_ROBIN)
        assert spread < packed
