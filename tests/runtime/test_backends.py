"""Tests exercising the public runtime API on BOTH backends.

The paper's key programmability claim is that one threaded code base runs on
Pthreads and on Samhita unchanged; these tests parametrize every kernel over
both backends and assert identical functional results.
"""

import numpy as np
import pytest

from repro.errors import BackendError
from repro.runtime import Runtime, make_backend


def u8(value):
    return np.frombuffer(np.int64(value).tobytes(), np.uint8)


def as_i64(buf):
    return int(np.asarray(buf, np.uint8)[:8].view(np.int64)[0])


BACKENDS = ["pthreads", "samhita"]


@pytest.fixture(params=BACKENDS)
def rt4(request):
    return Runtime(request.param, n_threads=4)


class TestBasics:
    def test_make_backend_rejects_unknown(self):
        with pytest.raises(BackendError):
            make_backend("mpi", 4)

    def test_runtime_requires_thread_count(self):
        with pytest.raises(BackendError):
            Runtime("pthreads")

    def test_pthreads_rejects_more_threads_than_cores(self):
        with pytest.raises(BackendError):
            Runtime("pthreads", n_threads=9)  # Penryn node has 8 cores

    def test_pthreads_oversubscribe_opt_in(self):
        rt = Runtime("pthreads", n_threads=9, allow_oversubscribe=True)
        assert rt.n_threads == 9

    def test_samhita_scales_past_one_node(self):
        rt = Runtime("samhita", n_threads=32)
        assert len(rt.backend.system.topology.components) > 6

    def test_cannot_spawn_more_than_declared(self, rt4):
        def body(ctx):
            yield from ctx.compute(1)

        rt4.spawn_all(body)
        with pytest.raises(BackendError):
            rt4.spawn(body)

    def test_run_without_spawn_rejected(self, rt4):
        with pytest.raises(BackendError):
            rt4.run()


class TestSameProgramBothBackends:
    def kernel_sum(self, ctx, shared, lock, bar, rounds):
        """The micro-benchmark's synchronization skeleton."""
        if ctx.tid == 0:
            shared["g"] = yield from ctx.malloc(64)
        yield from ctx.barrier(bar)
        for _ in range(rounds):
            yield from ctx.compute(100)
            yield from ctx.lock(lock)
            cur = yield from ctx.read(shared["g"], 8)
            yield from ctx.write(shared["g"], 8, u8(as_i64(cur) + 1))
            yield from ctx.unlock(lock)
            yield from ctx.barrier(bar)
        final = yield from ctx.read(shared["g"], 8)
        return as_i64(final)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_global_sum_identical(self, backend):
        rt = Runtime(backend, n_threads=4)
        lock, bar = rt.create_lock(), rt.create_barrier()
        shared = {}
        rt.spawn_all(self.kernel_sum, shared, lock, bar, 3)
        result = rt.run()
        assert [result.value_of(t) for t in sorted(result.threads)] == [12] * 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_neighbour_exchange_identical(self, backend):
        """Each thread writes its slot, barrier, reads its neighbour's."""
        rt = Runtime(backend, n_threads=4)
        bar = rt.create_barrier()
        shared = {}

        def body(ctx):
            if ctx.tid == 0:
                shared["base"] = yield from ctx.malloc(256 << 10)
            yield from ctx.barrier(bar)
            slot = shared["base"] + ctx.tid * 4096
            yield from ctx.write(slot, 8, u8(ctx.tid * 100))
            yield from ctx.barrier(bar)
            neighbour = shared["base"] + ((ctx.tid + 1) % 4) * 4096
            data = yield from ctx.read(neighbour, 8)
            return as_i64(data)

        rt.spawn_all(body)
        result = rt.run()
        values = [result.value_of(t) for t in sorted(result.threads)]
        assert values == [100, 200, 300, 0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_producer_consumer_condvar(self, backend):
        rt = Runtime(backend, n_threads=2)
        lock, cond, bar = rt.create_lock(), rt.create_cond(), rt.create_barrier()
        shared = {}

        def body(ctx):
            if ctx.tid == 0:
                shared["flag"] = yield from ctx.malloc(64)
                yield from ctx.write(shared["flag"], 8, u8(0))
            yield from ctx.barrier(bar)
            if ctx.tid == 1:  # consumer
                yield from ctx.lock(lock)
                while True:
                    val = as_i64((yield from ctx.read(shared["flag"], 8)))
                    if val == 1:
                        break
                    yield from ctx.cond_wait(cond, lock)
                yield from ctx.unlock(lock)
                return "consumed"
            yield from ctx.compute(10000)  # producer works first
            yield from ctx.lock(lock)
            yield from ctx.write(shared["flag"], 8, u8(1))
            yield from ctx.cond_signal(cond)
            yield from ctx.unlock(lock)
            return "produced"

        rt.spawn_all(body)
        result = rt.run()
        assert result.value_of(1) == "consumed"


class TestClockAccounting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compute_and_sync_buckets_populated(self, backend):
        rt = Runtime(backend, n_threads=2)
        bar = rt.create_barrier()

        def body(ctx):
            yield from ctx.compute(10000)
            yield from ctx.barrier(bar)

        rt.spawn_all(body)
        result = rt.run()
        for t in result.threads.values():
            assert t.clock.compute > 0
            assert t.clock.sync >= 0
            assert t.clock.total <= result.elapsed + 1e-12

    def test_samhita_sync_costs_more_than_pthreads(self):
        """Figure 11's headline: DSM synchronization is orders of magnitude
        above hardware synchronization."""
        def sync_time(backend):
            rt = Runtime(backend, n_threads=4)
            bar = rt.create_barrier()

            def body(ctx):
                for _ in range(10):
                    yield from ctx.barrier(bar)

            rt.spawn_all(body)
            return rt.run().mean_sync_time

        assert sync_time("samhita") > 10 * sync_time("pthreads")

    def test_waiting_at_barrier_counts_as_sync(self):
        rt = Runtime("pthreads", n_threads=2)
        bar = rt.create_barrier()

        def fast(ctx):
            yield from ctx.barrier(bar)

        def slow(ctx):
            yield from ctx.compute(10_000_000)
            yield from ctx.barrier(bar)

        rt.spawn(fast)
        rt.spawn(slow)
        result = rt.run()
        assert result.threads[0].clock.sync > result.threads[1].clock.sync


class TestFalseSharingBaseline:
    def test_pthreads_false_sharing_costs_coherence_misses(self):
        """Two threads alternately writing the same 64B line ping-pong it."""
        rt = Runtime("pthreads", n_threads=2)
        bar = rt.create_barrier()
        shared = {}

        def body(ctx):
            if ctx.tid == 0:
                shared["base"] = yield from ctx.malloc(4096)
            yield from ctx.barrier(bar)
            offset = ctx.tid * 8  # same line, different words
            for _ in range(50):
                yield from ctx.write(shared["base"] + offset, 8, u8(1))
                yield from ctx.barrier(bar)

        rt.spawn_all(body)
        result = rt.run()
        assert result.stats["cache"].get("coherence_misses", 0) > 50
