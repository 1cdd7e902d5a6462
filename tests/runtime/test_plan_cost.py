"""Deterministic cost gate for access plans (ROADMAP aim 1: call counts
gate CI where wall clock is too noisy to).

Nine of the paper's eleven figures are the Figure 2 kernel, whose every
access after the first sweep of an outer iteration is a cache hit. The host
cost of executing such a plan must follow the pages it touches, not the
M x S operations it lists (DESIGN.md S17), and a kernel must build its plan
once, not once per outer iteration.
"""

import collections
import sys

from repro.core.params import SamhitaConfig
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
from repro.runtime import Runtime, SharedArray
from repro.runtime.plan import AccessPlan
from tests.memory.test_diff_cost import tally_call, where_calls_go

S = 8
ROW_BYTES = 2048
#: Calls, builtins included, of one all-hit submission (221 for the first,
#: which derives the plan's vectors, 126 for a repeat).
BOUND = 300
REPEAT_BOUND = 126
#: Calls per operation of building a row sweep: 2.0 (the builder and the
#: plan method per memory op, ``callable`` on a write; a record is one
#: ``+=``). 10.0 when the builders checked bounds and addressed rows through
#: helper calls and a record was six column appends.
BUILD_BOUND = 4


def calls_to_submit(M: int, tally=None) -> tuple[int, int]:
    """Calls made by the first and by the second submission of one
    timing-mode plan of M sweeps over S resident 2 KB rows (read, write,
    compute per row: 3 * M * S operations); ``tally`` counts both per
    function (``tally_call``)."""
    rt = Runtime("samhita", n_threads=1, config=SamhitaConfig(functional=False))
    calls = []
    if tally is None:
        tally = collections.Counter()

    def program(ctx):
        base = yield from ctx.malloc(S * ROW_BYTES + 4096)
        yield from ctx.read(base, S * ROW_BYTES + 64)
        plan = AccessPlan()
        for _ in range(M):
            for row in range(S):
                addr = base + 64 + row * ROW_BYTES   # odd rows straddle pages
                plan.read(addr, ROW_BYTES)
                plan.write(addr, ROW_BYTES, None)
                plan.compute(ROW_BYTES // 8)
        for _ in range(2):
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event in ("call", "c_call")
                tally_call(tally, frame, event, arg)

            sys.setprofile(profile)
            try:
                yield from ctx.submit(plan)
            finally:
                sys.setprofile(None)
            calls.append(count)
        return 0

    rt.spawn(program)
    result = rt.run()
    cache = rt.backend.system.cache_of(0)
    assert cache.stats.counters["writes"] == 2 * M * S
    assert result.threads[0].clock.detail["cpu"] > 0
    return tuple(calls)


def test_all_hit_plan_cost_does_not_grow_with_its_length():
    tally_10, tally_100 = collections.Counter(), collections.Counter()
    first_10, again_10 = calls_to_submit(10, tally_10)
    first_100, again_100 = calls_to_submit(100, tally_100)
    where = where_calls_go(tally_100)
    grown = where_calls_go(tally_100 - tally_10)
    # 28,009 at M=100 (11.7 per operation) with one trip through the per-op
    # loop per hit; deriving the vectors is array calls however long the
    # plan is.
    assert first_100 <= BOUND and again_100 <= BOUND, where
    assert again_10 <= REPEAT_BOUND and again_100 <= REPEAT_BOUND, where
    assert first_100 <= 1.10 * first_10, grown
    assert again_100 <= 1.10 * again_10, grown
    assert again_100 < first_100  # the vectors are cached on the plan


def test_microbench_builds_its_plan_once_per_thread(monkeypatch):
    built = []
    init = AccessPlan.__init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(AccessPlan, "__init__", counting)
    threads = 4
    rt = Runtime("samhita", n_threads=threads,
                 config=SamhitaConfig(functional=False))
    spawn_microbench(rt, MicrobenchParams(N=5, M=3, S=2,
                                          allocation=Allocation.GLOBAL))
    rt.run()
    assert len(built) == threads
    assert all(len(plan) == 3 * 3 * 2 for plan in built)


def test_building_a_row_sweep_costs_a_few_calls_per_operation():
    """The Figure 2 kernel builds its M x S sweep once per thread; building
    is host work per operation, so it is counted per operation."""
    rows = 64
    built = []

    def program(ctx):
        arr = yield from SharedArray.allocate(ctx, rows, ROW_BYTES // 8)
        plan = AccessPlan()
        count = 0
        tally = collections.Counter()

        def profile(frame, event, arg):
            nonlocal count
            count += event in ("call", "c_call")
            tally_call(tally, frame, event, arg)

        sys.setprofile(profile)
        try:
            for row in range(rows):
                arr.read_rows_op(plan, row)
                arr.write_rows_op(plan, row, None, nrows=1)
                plan.compute(ROW_BYTES // 8)
        finally:
            sys.setprofile(None)
        built.append((count, plan, tally))
        return 0

    rt = Runtime("samhita", n_threads=1, config=SamhitaConfig(functional=False))
    rt.spawn(program)
    rt.run()
    (count, plan, tally), = built
    assert len(plan) == 3 * rows
    assert count <= BUILD_BOUND * len(plan), where_calls_go(tally)
