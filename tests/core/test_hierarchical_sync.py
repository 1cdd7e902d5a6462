"""Tests for node-combining barrier synchronization: the tree protocol on
one manager shard, where its cell level is skipped and each compute node's
leader arrives at the manager for the node."""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.kernels import (
    Allocation,
    MicrobenchParams,
    microbench_reference,
    spawn_microbench,
)
from repro.runtime import Runtime

HIER = SamhitaConfig(tree_barriers=True)


class TestCorrectness:
    @pytest.mark.parametrize("allocation", list(Allocation))
    def test_microbench_still_correct(self, allocation):
        params = MicrobenchParams(N=3, M=2, S=2, B=64, allocation=allocation)
        rt = Runtime("samhita", n_threads=16, config=HIER)  # 2 compute nodes
        spawn_microbench(rt, params)
        result = rt.run()
        expected = microbench_reference(params, 16)
        assert result.value_of(0) == pytest.approx(expected, rel=1e-9)

    def test_barriers_reusable_across_generations(self):
        rt = Runtime("samhita", n_threads=16, config=HIER)
        bar = rt.create_barrier()
        order = []

        def body(ctx):
            for r in range(4):
                yield from ctx.compute(100 * (ctx.tid + 1))
                yield from ctx.barrier(bar)
                order.append((r, ctx.tid))

        rt.spawn_all(body)
        rt.run()
        # Every round completes for all threads before the next starts.
        rounds = [r for r, _ in order]
        assert rounds == sorted(rounds)

    def test_consistency_work_still_happens(self):
        """Multi-writer merge through the combined path."""
        rt = Runtime("samhita", n_threads=16, config=HIER)
        bar = rt.create_barrier()
        shared = {}

        def body(ctx):
            if ctx.tid == 0:
                shared["addr"] = yield from ctx.malloc_shared(4096)
            yield from ctx.barrier(bar)
            # All 16 threads write disjoint slices of one page.
            off = ctx.tid * 16
            yield from ctx.write(shared["addr"] + off, 16,
                                 np.full(16, ctx.tid + 1, np.uint8))
            yield from ctx.barrier(bar)
            data = yield from ctx.read(shared["addr"], 256)
            return [int(data[i * 16]) for i in range(16)]

        rt.spawn_all(body)
        result = rt.run()
        assert result.value_of(5) == list(range(1, 17))


class TestCostShape:
    def test_fewer_manager_requests_per_barrier(self):
        def requests(hierarchical):
            config = SamhitaConfig(tree_barriers=hierarchical)
            rt = Runtime("samhita", n_threads=32, config=config)
            bar = rt.create_barrier()

            def body(ctx):
                for _ in range(5):
                    yield from ctx.barrier(bar)

            rt.spawn_all(body)
            result = rt.run()
            return result.stats["manager"].get("requests", 0)

        flat = requests(False)
        combined = requests(True)
        # 4 compute nodes instead of 32 threads talk to the manager.
        assert combined < flat / 4

    def test_barrier_sync_time_improves_at_scale(self):
        def sync_time(hierarchical):
            config = SamhitaConfig(tree_barriers=hierarchical)
            rt = Runtime("samhita", n_threads=32, config=config)
            bar = rt.create_barrier()

            def body(ctx):
                for _ in range(10):
                    yield from ctx.barrier(bar)

            rt.spawn_all(body)
            return rt.run().mean_sync_time

        assert sync_time(True) < sync_time(False)

    def test_partial_party_barrier_falls_back_to_flat(self):
        """Barriers over a subset of threads use the flat protocol (the
        combiner cannot know which local threads participate)."""
        rt = Runtime("samhita", n_threads=4, config=HIER)
        sub_bar = rt.create_barrier(parties=2)
        full_bar = rt.create_barrier()

        def body(ctx):
            if ctx.tid < 2:
                yield from ctx.barrier(sub_bar)
            yield from ctx.barrier(full_bar)
            return "done"

        rt.spawn_all(body)
        result = rt.run()
        assert all(result.value_of(t) == "done" for t in result.threads)
