"""Deterministic cost gates for the fault and barrier paths (ROADMAP aim 1:
call and allocation counts gate CI where wall clock is too noisy to).

A page-id collection is a vector from the fault to the install and through
the barrier plan, so (a) faulting a span costs a number of calls that
depends on how many table chunks it crosses, not on how many pages it has,
and (b) planning a barrier allocates in proportion to the pages noticed,
not to pages x threads.
"""

import sys
import tracemalloc

import numpy as np

from repro.core import SamhitaConfig, SamhitaSystem
from repro.core.consistency import plan_barrier
from repro.memory import PageDirectory
from tests.core.conftest import run_threads

PAGE = 4096
#: Calls (builtins included) of one 1,024-page timing-mode fault: scan,
#: request, bulk serve, install. ~395 today; the per-line scan took ~7,570
#: (~7 per page).
FAULT_BOUND = 500
#: What crossing five table chunks instead of one may add to the 64-page
#: count (~234 today; each chunk costs ~40 calls of segment and group work).
CHUNK_ALLOWANCE = 220


def calls_to_fault(n_pages: int) -> int:
    system = SamhitaSystem.cluster(
        n_threads=2, config=SamhitaConfig(functional=False))
    tid = system.add_thread()
    system.add_thread()
    where = {}

    def allocate():
        where["base"] = yield from system.malloc(tid, n_pages * PAGE,
                                                 shared=True)

    run_threads(system, [allocate()])
    cs = system.compute_server_of(tid)
    system.process(cs.ensure_resident(tid, where["base"], n_pages * PAGE,
                                      speculate=False))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        system.run()
    finally:
        sys.setprofile(None)
    assert system.cache_of(tid).span_resident(where["base"], n_pages * PAGE)
    assert cs.stats.get("pages_fetched") == n_pages
    assert cs.stats.get("fetch_requests") == 1
    return calls


def test_fault_cost_does_not_grow_with_the_pages_of_the_span():
    small, big = calls_to_fault(64), calls_to_fault(1024)
    assert big <= FAULT_BOUND
    assert big <= small + CHUNK_ALLOWANCE


def plan_peak_bytes(threads: int, pages_each: int) -> int:
    """Traced allocation peak of one ``plan_barrier`` round in which every
    thread noticed its own block of a grid (the Jacobi shape), plus every
    thread's directive sized and resolved against a cache-sized set."""
    notices = {tid: np.arange(tid * pages_each, (tid + 1) * pages_each)
               for tid in range(threads)}
    held = set(range(0, threads * pages_each, 7))
    directory = PageDirectory()
    tracemalloc.start()
    try:
        plan = plan_barrier(notices, directory)
        for tid in notices:
            directive = plan.directive(tid)
            assert len(directive) == (threads - 1) * pages_each
            hits = directive.intersection(held)
            assert all(not tid * pages_each <= p < (tid + 1) * pages_each
                       for p in hits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(directory) == threads * pages_each
    return peak


def test_plan_memory_follows_pages_noticed_not_pages_times_threads():
    # 16 threads x 1,024 pages: the P=16 Jacobi round. The set-based
    # planner built sixteen ~15k-element sets here (~28 MB).
    peak = plan_peak_bytes(16, 1024)
    assert peak < 4 << 20
    # Same 16,384 notices from four times the threads: no more memory.
    assert plan_peak_bytes(64, 256) < peak * 1.25
