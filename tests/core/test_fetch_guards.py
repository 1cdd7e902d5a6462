"""Tests for per-page invalidation guards and the fault retry loop."""

import numpy as np
import pytest

from repro.core import SamhitaConfig
from repro.kernels import (
    Allocation,
    MicrobenchParams,
    microbench_reference,
    spawn_microbench,
)
from repro.memory import MemoryLayout, SoftwareCache
from repro.runtime import Runtime


class TestInvalEpochs:
    def test_invalidate_bumps_counter_even_without_copy(self):
        # The counter guards in-flight fetches: while a fetch of the page
        # is registered, invalidation advances its epoch even though no
        # copy is resident.
        cache = SoftwareCache(MemoryLayout(), capacity_pages=8)
        token = cache.begin_fetch([5, 6])
        assert cache.inval_epoch_of(5) == 0
        cache.invalidate([5])          # page was never resident
        assert cache.inval_epoch_of(5) == 1
        cache.invalidate([5, 6])
        assert cache.inval_epoch_of(5) == 2
        assert cache.inval_epoch_of(6) == 1
        cache.end_fetch(token)

    def test_unfetched_pages_are_not_tracked(self):
        # No fetch in flight -> no observer for the bump: the directive is
        # absorbed without growing per-page state.
        cache = SoftwareCache(MemoryLayout(), capacity_pages=8)
        cache.invalidate([5])
        assert cache.inval_epoch_of(5) == 0

    def test_counters_independent_per_page(self):
        cache = SoftwareCache(MemoryLayout(), capacity_pages=8)
        token = cache.begin_fetch([1, 2])
        cache.invalidate([1])
        assert cache.inval_epoch_of(2) == 0
        cache.end_fetch(token)


class TestIvyContention:
    def test_heavy_write_contention_completes_and_is_correct(self):
        """16 threads hammering strided shared pages under the eager
        protocol: the per-page guards and the fault retry loop guarantee
        both progress and the right answer."""
        params = MicrobenchParams(N=3, M=2, S=2, B=256,
                                  allocation=Allocation.GLOBAL_STRIDED)
        rt = Runtime("samhita", n_threads=16,
                     config=SamhitaConfig(coherence="ivy"))
        spawn_microbench(rt, params)
        result = rt.run()
        expected = microbench_reference(params, 16)
        assert result.value_of(0) == pytest.approx(expected, rel=1e-9)
        # The contention machinery actually engaged.
        cs = result.stats["compute_servers"]
        assert cs.get("stale_fetch_dropped", 0) > 0

    def test_reader_against_writer_loop_makes_progress(self):
        """A reader polling a page that a writer updates in a tight loop --
        the textbook starvation case for invalidate protocols."""
        rt = Runtime("samhita", n_threads=2,
                     config=SamhitaConfig(coherence="ivy"))
        bar = rt.create_barrier()
        shared = {}

        def writer(ctx):
            shared["addr"] = yield from ctx.malloc_shared(4096)
            yield from ctx.barrier(bar)
            for i in range(1, 40):
                payload = np.frombuffer(np.int64(i).tobytes(), np.uint8)
                yield from ctx.write(shared["addr"], 8, payload)
            yield from ctx.barrier(bar)

        def reader(ctx):
            yield from ctx.barrier(bar)
            seen = []
            for _ in range(10):
                raw = yield from ctx.read(shared["addr"], 8)
                seen.append(int(raw.view(np.int64)[0]))
            yield from ctx.barrier(bar)
            return seen

        rt.spawn(writer)
        rt.spawn(reader)
        result = rt.run()
        seen = result.value_of(1)
        assert len(seen) == 10
        # Monotone non-decreasing reads: no time travel.
        assert seen == sorted(seen)
