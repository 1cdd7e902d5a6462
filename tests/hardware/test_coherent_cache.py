"""Tests for the hardware-coherent cache model (Pthreads baseline)."""

import pytest

from repro.hardware import CoherentCacheModel
from repro.hardware.specs import CacheSpec, NodeSpec, PENRYN_CPU
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
from repro.runtime import Runtime
from tests.property.test_coherent_cache_props import ReferenceCache

SPEC = CacheSpec(line_bytes=64, cold_miss_time=60e-9, coherence_miss_time=80e-9)


def make():
    return CoherentCacheModel(SPEC)


class TestBasics:
    def test_first_touch_is_cold_miss(self):
        c = make()
        cost = c.access(core=0, addr=0, nbytes=8, is_write=False)
        assert cost == pytest.approx(SPEC.cold_miss_time)
        assert c.stats.get("cold_misses") == 1

    def test_repeat_access_is_hit(self):
        c = make()
        c.access(0, 0, 8, False)
        cost = c.access(0, 0, 8, False)
        assert cost == pytest.approx(SPEC.hit_time)
        assert c.stats.get("hits") == 1

    def test_block_access_touches_each_line_once(self):
        c = make()
        c.access(0, 0, 256, True)  # 4 lines
        assert c.stats.get("cold_misses") == 4
        c.access(0, 0, 256, True)
        assert c.stats.get("hits") == 4

    def test_unaligned_block_spans_extra_line(self):
        c = make()
        c.access(0, 32, 64, False)  # crosses a line boundary
        assert c.stats.get("cold_misses") == 2

    def test_zero_bytes_free(self):
        c = make()
        assert c.access(0, 0, 0, True) == 0.0
        assert c.tracked_lines == 0


class TestCoherence:
    def test_read_of_remote_dirty_line_costs_coherence_miss(self):
        c = make()
        c.access(0, 0, 8, True)   # core 0 dirties the line
        cost = c.access(1, 0, 8, False)
        assert cost == pytest.approx(SPEC.coherence_miss_time)
        assert c.stats.get("coherence_misses") == 1

    def test_read_of_remote_clean_line_is_cold_fill(self):
        c = make()
        c.access(0, 0, 8, False)
        cost = c.access(1, 0, 8, False)
        assert cost == pytest.approx(SPEC.cold_miss_time)

    def test_write_upgrade_invalidates_readers(self):
        c = make()
        c.access(0, 0, 8, False)
        c.access(1, 0, 8, False)  # both share the line
        cost = c.access(0, 0, 8, True)
        assert cost == pytest.approx(SPEC.coherence_miss_time)
        assert c.stats.get("upgrade_misses") == 1
        # Core 1 was invalidated, so its next read misses.
        cost = c.access(1, 0, 8, False)
        assert cost == pytest.approx(SPEC.coherence_miss_time)

    def test_write_ping_pong_between_cores(self):
        c = make()
        c.access(0, 0, 8, True)
        total = 0.0
        for i in range(1, 7):
            total += c.access(i % 2, 0, 8, True)
        assert total == pytest.approx(6 * SPEC.coherence_miss_time)

    def test_private_blocks_do_not_interfere(self):
        c = make()
        c.access(0, 0, 64, True)
        c.access(1, 64, 64, True)  # adjacent but distinct lines
        assert c.access(0, 0, 64, True) == pytest.approx(SPEC.hit_time)
        assert c.access(1, 64, 64, True) == pytest.approx(SPEC.hit_time)

    def test_false_sharing_within_one_line(self):
        # Two cores write different bytes of the same 64B line: classic
        # false sharing; every alternation pays a coherence miss.
        c = make()
        c.access(0, 0, 8, True)
        cost1 = c.access(1, 32, 8, True)
        cost0 = c.access(0, 0, 8, True)
        assert cost1 == pytest.approx(SPEC.coherence_miss_time)
        assert cost0 == pytest.approx(SPEC.coherence_miss_time)

    def test_reset_clears_state_and_stats(self):
        c = make()
        c.access(0, 0, 8, True)
        c.reset()
        assert c.tracked_lines == 0
        assert c.stats.snapshot() == {}


class TestManyCores:
    """Sharer sets are unbounded: a node may have more than 64 cores."""

    def test_core_index_has_no_upper_limit(self):
        c = make()
        c.access(200, 0, 8, True)
        for core, is_write in ((3, False), (3, True), (200, False)):
            assert c.access(core, 0, 8, is_write) == pytest.approx(
                SPEC.coherence_miss_time)
        assert c.stats.get("upgrade_misses") == 1

    def test_negative_core_rejected(self):
        with pytest.raises(ValueError):
            make().access(-1, 0, 8, False)

    @pytest.mark.parametrize("allocation",
                             [Allocation.GLOBAL, Allocation.GLOBAL_STRIDED])
    def test_pthreads_runs_72_threads_exactly(self, allocation):
        node = NodeSpec("smp-72c", PENRYN_CPU, sockets=1, cores_per_socket=72)
        rt = Runtime("pthreads", n_threads=72, node=node)
        cache = rt.backend.cache
        ref = ReferenceCache(cache.spec, cache.cores_per_socket)
        priced = cache.access

        def replayed(core, addr, nbytes, is_write):
            cost = priced(core, addr, nbytes, is_write)
            assert cost == ref.access(core, addr, nbytes, is_write)
            return cost

        cache.access = replayed
        spawn_microbench(rt, MicrobenchParams(N=2, M=2, S=2,
                                              allocation=allocation))
        result = rt.run()
        assert len(result.threads) == 72
        assert len({t.value for t in result.threads.values()}) == 1
        assert cache.stats.snapshot() == ref.counters
        assert cache.tracked_lines == len(ref.lines)
