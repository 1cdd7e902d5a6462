"""Integration tests: allocation, demand paging, prefetch, eviction,
recall -- driven through a whole SamhitaSystem."""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.errors import MemoryError_
from tests.core.conftest import run_threads, u8

PAGE = 4096
LINE = 4 * PAGE


class TestMallocPaths:
    def test_arena_alloc_needs_one_rpc_then_is_local(self, cluster2):
        system, (t0, _) = cluster2
        addrs = []

        def body():
            for _ in range(10):
                addrs.append((yield from system.malloc(t0, 1024)))

        run_threads(system, [body()])
        assert len(set(addrs)) == 10
        # One arena refill RPC serves all ten small allocations.
        assert system.manager.stats.get("allocs") == 1

    def test_shared_alloc_goes_through_manager(self, cluster2):
        system, (t0, _) = cluster2

        def body():
            yield from system.malloc(t0, 128 << 10)

        run_threads(system, [body()])
        assert system.allocator.stats.get("shared_allocs") == 1
        assert system.manager.stats.get("allocs") == 1

    def test_striped_alloc_for_large_requests(self, cluster2):
        system, (t0, _) = cluster2

        def body():
            yield from system.malloc(t0, 2 << 20)

        run_threads(system, [body()])
        assert system.allocator.stats.get("striped_allocs") == 1

    def test_free_arena_is_local_free_shared_rpcs(self, cluster2):
        system, (t0, _) = cluster2

        def body():
            small = yield from system.malloc(t0, 64)
            big = yield from system.malloc(t0, 128 << 10)
            yield from system.free(t0, small)
            before = system.manager.stats.get("requests")
            yield from system.free(t0, big)
            assert system.manager.stats.get("requests") > before

        run_threads(system, [body()])


class TestDemandPaging:
    def test_first_read_faults_whole_line_second_read_hits(self, cluster2):
        system, (t0, _) = cluster2

        def body():
            addr = yield from system.malloc(t0, 128 << 10)
            yield from system.mem_read(t0, addr, 8)
            cache = system.cache_of(t0)
            # Every allocated page of the faulted line is now resident.
            line = cache.layout.line_of_addr(addr)
            first_page = cache.layout.page_of(addr)
            for page in cache.layout.line_pages(line):
                if page >= first_page:
                    assert cache.resident(page)
            faults_before = system.compute_server_of(t0).stats.get("faults")
            yield from system.mem_read(t0, addr + PAGE, 8)  # same line
            assert system.compute_server_of(t0).stats.get("faults") == faults_before

        run_threads(system, [body()])

    def test_fault_takes_simulated_time(self, cluster2):
        system, (t0, _) = cluster2
        times = {}

        def body():
            addr = yield from system.malloc(t0, 128 << 10)
            start = system.engine.now
            yield from system.mem_read(t0, addr, 8)
            times["fault"] = system.engine.now - start
            start = system.engine.now
            yield from system.mem_read(t0, addr, 8)
            times["hit"] = system.engine.now - start

        run_threads(system, [body()])
        assert times["fault"] > 5e-6      # network + server + install
        assert times["hit"] == 0.0         # pure cache hit costs no extra time

    def test_write_read_roundtrip_through_dsm(self, cluster2):
        system, (t0, _) = cluster2
        out = {}

        def body():
            addr = yield from system.malloc(t0, 128 << 10)
            payload = np.arange(256, dtype=np.uint8)
            yield from system.mem_write(t0, addr + 100, 256, payload)
            out["data"] = (yield from system.mem_read(t0, addr + 100, 256)).copy()

        run_threads(system, [body()])
        assert np.array_equal(out["data"], np.arange(256, dtype=np.uint8))

    def test_unallocated_access_rejected(self, cluster2):
        # Rejected on the first attempt, before any fetch is issued.
        system, (t0, _) = cluster2

        def body():
            with pytest.raises(MemoryError_,
                               match=f"unallocated page {50 << 20:#x}"):
                yield from system.mem_read(t0, 50 << 20, 8)

        run_threads(system, [body()])
        cs = system.stats_report()["compute_servers"]
        assert cs.get("fetch_requests", 0) == 0


class TestPrefetch:
    def test_adjacent_line_prefetched(self, cluster2):
        system, (t0, _) = cluster2

        def body():
            addr = yield from system.malloc(t0, 256 << 10)
            yield from system.mem_read(t0, addr, 8)

        run_threads(system, [body()])
        cs = system.compute_server_of(t0)
        # The prediction rides the demand trip as speculative cargo.
        assert cs.stats.get("speculative_riders") >= 1

    def test_sequential_scan_hits_prefetched_lines(self, cluster2):
        system, (t0, _) = cluster2

        def body():
            addr = yield from system.malloc(t0, 256 << 10)
            for off in range(0, 16 * LINE, LINE):
                yield from system.mem_read(t0, addr + off, 8)

        run_threads(system, [body()])
        cache = system.cache_of(t0)
        assert cache.stats.get("prefetch_hits") >= 8

    def test_prefetch_disabled_by_config(self):
        config = SamhitaConfig(prefetch=False)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        t0 = system.add_thread()

        def body():
            addr = yield from system.malloc(t0, 256 << 10)
            yield from system.mem_read(t0, addr, 8)

        run_threads(system, [body()])
        assert system.compute_server_of(t0).stats.get("speculative_riders") == 0


class TestEviction:
    def _tiny_cache_system(self, policy=None):
        kw = {"cache_capacity_pages": 8,
              "prefetch": False}
        if policy is not None:
            kw["eviction_policy"] = policy
        config = SamhitaConfig(**kw)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        return system, system.add_thread()

    def test_working_set_larger_than_cache_evicts(self):
        system, t0 = self._tiny_cache_system()

        def body():
            addr = yield from system.malloc(t0, 256 << 10)
            for off in range(0, 64 * PAGE, PAGE):
                yield from system.mem_read(t0, addr + off, 8)

        run_threads(system, [body()])
        assert system.cache_of(t0).stats.get("evictions") > 0
        assert system.cache_of(t0).resident_pages <= 8

    def test_dirty_eviction_writes_back_and_data_survives(self):
        system, t0 = self._tiny_cache_system()
        out = {}

        def body():
            addr = yield from system.malloc(t0, 256 << 10)
            yield from system.mem_write(t0, addr, 8, u8(1234567))
            # Blow the cache with 16 other pages.
            for off in range(PAGE, 17 * PAGE, PAGE):
                yield from system.mem_read(t0, addr + off, 8)
            cache = system.cache_of(t0)
            assert not cache.resident(cache.layout.page_of(addr))
            data = yield from system.mem_read(t0, addr, 8)
            out["v"] = int(data.view(np.int64)[0])

        run_threads(system, [body()])
        assert out["v"] == 1234567
        assert system.cache_of(t0).stats.get("evictions_dirty") >= 1


class TestStripedFetch:
    def test_striped_allocation_served_by_multiple_servers(self):
        config = SamhitaConfig(n_memory_servers=2)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        t0 = system.add_thread()

        def body():
            addr = yield from system.malloc(t0, 2 << 20)
            for off in range(0, 8 * LINE, LINE):
                yield from system.mem_read(t0, addr + off, 8)

        run_threads(system, [body()])
        served = [s.stats.get("pages_served") for s in system.memory_servers]
        assert all(count > 0 for count in served)


class TestTimingMode:
    def test_timing_mode_tracks_traffic_without_data(self):
        config = SamhitaConfig(functional=False)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        t0 = system.add_thread()
        out = {}

        def body():
            addr = yield from system.malloc(t0, 128 << 10)
            yield from system.mem_write(t0, addr, 256, None)
            out["read"] = yield from system.mem_read(t0, addr, 256)

        run_threads(system, [body()])
        assert out["read"] is None
        assert system.fabric.stats.get("bytes.page") > 0
