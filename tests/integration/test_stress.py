"""Stress / scale integration tests with the functional data plane."""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.kernels import (
    Allocation,
    MicrobenchParams,
    microbench_reference,
    spawn_microbench,
)
from repro.runtime import Runtime, SamhitaBackend, SharedArray


class TestFullScale:
    def test_32_threads_functional_correctness(self):
        """The paper's maximum configuration, with real data."""
        params = MicrobenchParams(N=2, M=1, S=1, B=64,
                                  allocation=Allocation.GLOBAL_STRIDED)
        rt = Runtime("samhita", n_threads=32)
        spawn_microbench(rt, params)
        result = rt.run()
        expected = microbench_reference(params, 32)
        assert result.value_of(0) == pytest.approx(expected, rel=1e-9)
        assert result.n_threads == 32

    def test_hetero_machine_functional_correctness(self):
        """Figure 1's machine runs the same program correctly."""
        system = SamhitaSystem.hetero(n_coprocessors=2)
        rt = Runtime(SamhitaBackend(8, system=system))
        params = MicrobenchParams(N=2, M=2, S=2, B=64,
                                  allocation=Allocation.GLOBAL)
        spawn_microbench(rt, params)
        result = rt.run()
        expected = microbench_reference(params, 8)
        assert result.value_of(0) == pytest.approx(expected, rel=1e-9)


class TestEvictionUnderSharing:
    def test_correctness_survives_cache_thrash(self):
        """A cache far smaller than the shared working set forces constant
        eviction write-backs interleaved with barrier merges; every thread
        must still see every byte correctly."""
        config = SamhitaConfig(cache_capacity_pages=8,
                               prefetch=False)
        rt = Runtime("samhita", n_threads=4, config=config)
        bar = rt.create_barrier()
        shared = {}
        rows, cols = 24, 512  # 96 KiB: 3x the cache per thread

        def body(ctx):
            if ctx.tid == 0:
                shared["arr"] = yield from SharedArray.allocate(ctx, rows, cols)
            yield from ctx.barrier(bar)
            arr = shared["arr"].view(ctx)
            for row in range(ctx.tid, rows, ctx.nthreads):
                values = np.full(cols, float(row + 1), np.float64)
                yield from arr.write_rows(row, values)
            yield from ctx.barrier(bar)
            total = 0.0
            for row in range(rows):
                data = yield from arr.read_rows(row)
                total += float(data.sum())
            return total

        rt.spawn_all(body)
        result = rt.run()
        expected = sum(cols * (r + 1) for r in range(rows))
        for tid in sorted(result.threads):
            assert result.value_of(tid) == pytest.approx(expected)
        assert result.stats["caches"].get("evictions", 0) > 0

    def test_dirty_eviction_respects_ownership(self):
        """Evicting an owned page clears ownership; later readers get fresh
        data from the home, not a recall to a cleaned cache."""
        config = SamhitaConfig(cache_capacity_pages=8,
                               prefetch=False)
        rt = Runtime("samhita", n_threads=2, config=config)
        bar = rt.create_barrier()
        shared = {}

        def writer(ctx):
            shared["arr"] = yield from SharedArray.allocate(ctx, 16, 512)
            arr = shared["arr"]
            yield from arr.write_rows(0, np.full(512, 7.0))
            yield from ctx.barrier(bar)  # row 0's pages now owned by tid 0
            # Thrash own cache so the owned page is evicted (write-back).
            for row in range(1, 16):
                yield from arr.write_rows(row, np.full(512, float(row)))
            yield from ctx.barrier(bar)
            yield from ctx.barrier(bar)

        def reader(ctx):
            yield from ctx.barrier(bar)
            yield from ctx.barrier(bar)
            data = yield from shared["arr"].view(ctx).read_rows(0)
            yield from ctx.barrier(bar)
            return float(data[0, 0])

        rt.spawn(writer)
        rt.spawn(reader)
        result = rt.run()
        assert result.value_of(1) == 7.0


class TestManyLocks:
    def test_independent_locks_do_not_serialize(self):
        """Threads using distinct locks proceed without mutual blocking;
        lock state at the manager is per-lock."""
        rt = Runtime("samhita", n_threads=4)
        locks = [rt.create_lock() for _ in range(4)]
        shared = {}
        bar = rt.create_barrier()

        def body(ctx):
            if ctx.tid == 0:
                shared["base"] = yield from ctx.malloc_shared(4 * 4096)
            yield from ctx.barrier(bar)
            slot = shared["base"] + ctx.tid * 4096
            for i in range(10):
                yield from ctx.lock(locks[ctx.tid])
                payload = np.frombuffer(np.int64(i).tobytes(), np.uint8)
                yield from ctx.write(slot, 8, payload)
                yield from ctx.unlock(locks[ctx.tid])
            yield from ctx.barrier(bar)
            data = yield from ctx.read(slot, 8)
            return int(np.asarray(data).view(np.int64)[0])

        rt.spawn_all(body)
        result = rt.run()
        assert all(result.value_of(t) == 9 for t in result.threads)
        # No lock ever had a waiter: acquisitions equal grants without queue.
        assert result.stats["manager"].get("lock_acquires") == 40
