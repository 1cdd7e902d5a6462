"""Sharded control plane (§ control-plane scaling).

Covers the three legs of the sharded design:

* **Routing** -- locks/barriers/conds go to ``id % n_shards``, pages and
  allocations to the address-slice shard, deterministically;
* **Lock-ownership cache** -- repeat acquires of an uncontended lock are
  free of manager traffic until a contending acquire revokes the grant,
  and stashed release records never lose consistency updates;
* **Tree barriers** -- per-cell combining reaches the same generation
  count as the flat protocol with strictly fewer root-shard arrivals.

Plus the CI-pinned degenerate case: ``manager_shards=1`` (the default)
must be trajectory-identical to a build that predates the sharding.
"""

import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.core.allocator import (
    SHARD_SLICE_PAGES,
    AllocationKind,
    SamhitaAllocator,
    shard_of_page,
)
from repro.errors import ReproError, SynchronizationError
from repro.sim.engine import Timeout

from tests.core.conftest import run_threads


def sharded_cluster(n_threads, shards=2, **overrides):
    config = SamhitaConfig(manager_shards=shards, **overrides)
    system = SamhitaSystem.cluster(n_threads, config=config)
    tids = [system.add_thread() for _ in range(n_threads)]
    return system, tids


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def test_manager_shards_validation():
    with pytest.raises(ReproError):
        SamhitaConfig(manager_shards=0)


def test_shards_get_distinct_components():
    system, _ = sharded_cluster(2, shards=3)
    comps = [m.component for m in system.managers]
    assert comps == ["node0", "node1", "node2"]
    assert len(set(comps)) == 3
    # Memory servers and compute nodes shifted past the shard nodes.
    assert system.memory_servers[0].component == "node3"


def test_sync_ids_route_round_robin():
    system, _ = sharded_cluster(2, shards=3)
    ids = [system.create_lock() for _ in range(6)]
    for lock_id in ids:
        shard = system.control.shard_for_id(lock_id)
        assert shard is system.managers[lock_id % 3]
        assert lock_id in shard._locks
    # Barriers and conds share the same counter, so consecutive creates
    # keep spreading over the shards.
    bar = system.create_barrier(2)
    cond = system.create_cond()
    assert bar in system.managers[bar % 3]._barriers
    assert cond in system.managers[cond % 3]._conds


def test_address_slices_are_disjoint_and_routable():
    alloc = SamhitaAllocator(SamhitaConfig(manager_shards=4))
    page_bytes = alloc.layout.page_bytes
    for k in range(4):
        assert shard_of_page(k * SHARD_SLICE_PAGES, 4) == k
        assert shard_of_page((k + 1) * SHARD_SLICE_PAGES - 1, 4) == k
        # Thread k's first carve opens slice k, past its null page.
        page = alloc.shared_alloc(1 << 17, tid=k) // page_bytes
        assert k * SHARD_SLICE_PAGES < page < (k + 1) * SHARD_SLICE_PAGES
    # An allocation no thread asked for lands in slice 0.
    assert alloc.striped_alloc(2 << 20) // page_bytes < SHARD_SLICE_PAGES
    # Pages past the last slice boundary clamp to the last shard.
    assert shard_of_page(10 * SHARD_SLICE_PAGES, 4) == 3


def test_alloc_routes_by_thread_and_page_routes_back():
    system, tids = sharded_cluster(2, shards=2)

    addrs = {}

    def body(tid):
        addrs[tid] = yield from system.malloc(tid, 1 << 16)

    run_threads(system, [body(t) for t in tids])
    layout = system.config.layout
    for tid, addr in addrs.items():
        page = layout.page_of(addr)
        # The address lives inside the thread's slice, and the pure
        # page->shard map sends it back to the shard that served it.
        slice_ = tid % 2
        assert (slice_ * SHARD_SLICE_PAGES < page
                < (slice_ + 1) * SHARD_SLICE_PAGES)
        assert shard_of_page(page, 2) == slice_
        assert system.allocator.home_of_page(page) is not None
    # One arena refill each, served by the thread's shard.
    assert [row["alloc"] for row in system.control.rpcs_by_shard()] == [1, 1]


@pytest.mark.parametrize("shards", [2, 3])
def test_allocation_placement_survives_shard_count_and_failover(shards):
    system, tids = sharded_cluster(4, shards=shards, n_memory_servers=2)
    allocator = system.allocator
    page_bytes = system.config.layout.page_bytes
    got = {}

    def allocate(tid):
        # Arena, two shared-zone, striped, and a page-aligned global.
        for size in (100, 128 << 10, 256 << 10, 2 << 20):
            got[tid].append((yield from system.malloc(tid, size)))
        got[tid].append((yield from system.malloc(tid, 64, shared=True)))

    def allocate_all(threads):
        got.clear()
        got.update({tid: [] for tid in threads})
        run_threads(system, [allocate(tid) for tid in threads])
        for tid, addrs in got.items():
            assert {addr // page_bytes // SHARD_SLICE_PAGES
                    for addr in addrs} == {tid % shards}

    def alloc_column():
        return [row["alloc"] for row in system.control.rpcs_by_shard()]

    def free_served_by(free_from, addr):
        before = alloc_column()
        run_threads(system, [system.free(free_from, addr)])
        assert allocator.allocation_at(addr).freed
        return [b - a for a, b in zip(before, alloc_column())]

    allocate_all(tids)
    # A free routes by the address's slice, not by the freeing thread.
    assert free_served_by(0, got[1][1]) == [int(i == 1) for i in range(shards)]

    system.control.handle_shard_failure(1)
    successor = 2 % shards
    before = alloc_column()
    allocate_all([tid for tid in tids if tid % shards == 1])
    grew = [i for i, (a, b) in enumerate(zip(before, alloc_column())) if a != b]
    assert grew == [successor]
    assert free_served_by(0, got[1][2]) == [
        int(i == successor) for i in range(shards)]

    for k in range(shards):
        # The first page of a slice is its null page.
        assert allocator.allocated_span(k * SHARD_SLICE_PAGES) is None
        # Each slice deals its shared-zone allocations round-robin over
        # the memory servers, in carve (= address) order.
        zone = sorted(addr for addr, alloc in allocator.allocations.items()
                      if alloc.kind is AllocationKind.SHARED_ZONE
                      and addr // page_bytes // SHARD_SLICE_PAGES == k)
        assert zone
        assert [allocator.home_of_page(addr // page_bytes)
                for addr in zone] == [i % 2 for i in range(len(zone))]


def test_timing_mode_cell_with_data_runs_on_the_sharded_control_plane():
    # Timing-mode page fetches take the bulk-serve path (add_sharers +
    # serve_pages_timing); it used to raise AttributeError under sharding.
    from repro.experiments.harness import run_workload_direct
    from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
    params = MicrobenchParams(N=4, M=2, S=4, allocation=Allocation.GLOBAL)
    sharded = run_workload_direct(
        "samhita", 8, spawn_microbench, params, functional=False,
        config=SamhitaConfig.sharded_control_plane(4))
    assert sharded.stats["compute_servers"]["pages_fetched"] > 0
    assert sharded.stats["memory_servers"]["pages_served"] > 0
    assert len(sharded.stats["manager_rpcs_by_shard"]) == 4


def test_routing_is_deterministic_across_runs():
    def observe():
        system, tids = sharded_cluster(4, shards=2)
        lock = system.create_lock()
        bar = system.create_barrier(4)

        def body(tid):
            yield from system.acquire_lock(tid, lock)
            yield Timeout(1e-6)
            yield from system.release_lock(tid, lock)
            yield from system.barrier_wait(tid, bar)

        elapsed = run_threads(system, [body(t) for t in tids])
        return elapsed, system.stats_report()["manager_rpcs_by_shard"]

    first = observe()
    second = observe()
    assert first == second


# ----------------------------------------------------------------------
# shards=1 bit-identity (the CI-pinned default)
# ----------------------------------------------------------------------
def test_shards_one_is_trajectory_identical_to_default():
    def run(config):
        system = SamhitaSystem.cluster(4, config=config)
        tids = [system.add_thread() for _ in range(4)]
        lock = system.create_lock()
        bar = system.create_barrier(4)

        def body(tid):
            addr = yield from system.malloc(tid, 4096)
            for _ in range(3):
                yield from system.acquire_lock(tid, lock)
                yield from system.mem_write(tid, addr, 64, None)
                yield from system.release_lock(tid, lock)
                yield from system.barrier_wait(tid, bar)

        elapsed = run_threads(system, [body(t) for t in tids])
        report = system.stats_report()
        return elapsed, report["manager"], report["scl"]

    default = run(None)
    explicit = run(SamhitaConfig(manager_shards=1))
    assert default == explicit


def test_default_report_has_single_shard_row_and_no_lock_cache():
    system, tids = sharded_cluster(2, shards=1)

    def body(tid):
        yield from system.malloc(tid, 128)

    run_threads(system, [body(t) for t in tids])
    report = system.stats_report()
    rows = report["manager_rpcs_by_shard"]
    assert len(rows) == 1 and rows[0]["shard"] == 0
    assert rows[0]["alloc"] >= 1
    assert "lock_cache" not in report
    assert "control_plane" not in report


# ----------------------------------------------------------------------
# lock-ownership cache
# ----------------------------------------------------------------------
def test_uncontended_reacquire_hits_cache_and_skips_manager():
    system, tids = sharded_cluster(2, lock_owner_cache=True)
    lock = system.create_lock()
    trace = []

    def owner(tid):
        for i in range(4):
            yield from system.acquire_lock(tid, lock)
            trace.append((tid, i))
            yield from system.release_lock(tid, lock)

    run_threads(system, [owner(tids[0])])
    report = system.stats_report()
    lc = report["lock_cache"]
    # First acquire pays the RPC; the next three are local hits.
    assert lc["lock_cache_hits"] == 3
    assert lc["lock_cache_local_releases"] == 3
    assert report["manager"]["lock_acquires"] == 1
    assert len(trace) == 4


def test_contending_acquire_revokes_cached_grant():
    system, tids = sharded_cluster(2, lock_owner_cache=True)
    lock = system.create_lock()
    order = []

    def first(tid):
        yield from system.acquire_lock(tid, lock)
        order.append(("a", tid))
        yield from system.release_lock(tid, lock)  # cacheable -> cached

    def second(tid):
        yield Timeout(1e-4)  # let the first thread finish and cache
        yield from system.acquire_lock(tid, lock)
        order.append(("a", tid))
        yield from system.release_lock(tid, lock)

    run_threads(system, [first(tids[0]), second(tids[1])])
    report = system.stats_report()
    assert order == [("a", tids[0]), ("a", tids[1])]
    assert report["lock_cache"]["lock_cache_revokes"] >= 1
    assert report["lock_cache"]["lock_cache_revoked"] >= 1


def test_cached_critical_sections_stay_mutually_exclusive():
    system, tids = sharded_cluster(4, lock_owner_cache=True)
    lock = system.create_lock()
    bar = system.create_barrier(4)
    state = {"in_cr": 0, "max_in_cr": 0, "count": 0}

    def body(tid):
        for _ in range(5):
            yield from system.acquire_lock(tid, lock)
            state["in_cr"] += 1
            state["max_in_cr"] = max(state["max_in_cr"], state["in_cr"])
            state["count"] += 1
            yield Timeout(1e-6)
            state["in_cr"] -= 1
            yield from system.release_lock(tid, lock)
            yield from system.barrier_wait(tid, bar)

    run_threads(system, [body(t) for t in tids])
    assert state["count"] == 20
    assert state["max_in_cr"] == 1


def test_cond_wait_accepts_cache_held_lock():
    system, tids = sharded_cluster(2, lock_owner_cache=True)
    lock = system.create_lock()
    cond = system.create_cond()
    woke = []

    def waiter(tid):
        yield from system.acquire_lock(tid, lock)
        yield from system.release_lock(tid, lock)
        # Cached grant: this acquire is a local hit, the manager sees no
        # holder -- cond_wait must still accept it.
        yield from system.acquire_lock(tid, lock)
        yield from system.cond_wait(tid, cond, lock)
        woke.append(tid)
        yield from system.release_lock(tid, lock)

    def signaler(tid):
        yield Timeout(1e-3)
        yield from system.cond_signal(tid, cond)

    run_threads(system, [waiter(tids[0]), signaler(tids[1])])
    assert woke == [tids[0]]


# ----------------------------------------------------------------------
# tree barriers
# ----------------------------------------------------------------------
def test_tree_barrier_counts_generations_at_root():
    rounds = 4
    system, tids = sharded_cluster(16, shards=2, tree_barriers=True)
    bar = system.create_barrier(16)
    root = system.control.shard_for_id(bar)

    def body(tid):
        for _ in range(rounds):
            yield from system.barrier_wait(tid, bar)

    run_threads(system, [body(t) for t in tids])
    assert root._barriers[bar].generation == rounds
    assert root.stats.counters["barrier_rounds"] == rounds


def test_tree_barrier_cuts_root_arrivals():
    """Flat: every thread's arrival is a root RPC. Tree: one aggregate
    arrival per cell -- the root fan-in drops from O(threads) to
    O(cells)."""
    rounds = 3

    def run(tree):
        system, tids = sharded_cluster(16, shards=2, tree_barriers=tree)
        bar = system.create_barrier(16)
        root = system.control.shard_for_id(bar)

        def body(tid):
            for _ in range(rounds):
                yield from system.barrier_wait(tid, bar)

        run_threads(system, [body(t) for t in tids])
        return root, system

    flat_root, _ = run(tree=False)
    tree_root, tree_system = run(tree=True)
    flat_arrivals = flat_root.stats.counters["requests.barrier"]
    tree_arrivals = tree_root.stats.counters["requests.barrier"]
    assert flat_arrivals == 16 * rounds
    # 16 threads on 2 compute nodes, 2 cells: one group arrival per cell.
    assert tree_arrivals < flat_arrivals
    assert tree_root._barriers[2].generation == rounds \
        if 2 in tree_root._barriers else True
    # Every round still completes for every thread.
    assert tree_system.stats_report()["manager"]["barrier_rounds"] == rounds


def test_tree_barrier_falls_back_for_partial_party_barriers():
    """A barrier over a subset of threads cannot use the combining tree
    (cell populations assume full participation): it must still work via
    the flat path."""
    system, tids = sharded_cluster(4, shards=2, tree_barriers=True)
    bar = system.create_barrier(2)
    passed = []

    def body(tid):
        yield from system.barrier_wait(tid, bar)
        passed.append(tid)

    run_threads(system, [body(t) for t in tids[:2]])
    assert sorted(passed) == sorted(tids[:2])


def test_double_arrival_still_rejected_without_fault_model():
    """A fault-free sharded build treats a duplicate same-generation
    arrival as a protocol violation, as every build does."""
    system, tids = sharded_cluster(2, shards=2)
    bar = system.create_barrier(2)
    root = system.control.shard_for_id(bar)

    def sneaky(tid):
        state = root._barrier(bar)
        state.arrived[tid] = []
        with pytest.raises(SynchronizationError):
            yield from system.control.barrier_arrive(tid, "node3", bar, [])

    run_threads(system, [sneaky(tids[0])])


# ----------------------------------------------------------------------
# combined configuration
# ----------------------------------------------------------------------
def test_sharded_control_plane_preset_end_to_end():
    config = SamhitaConfig.sharded_control_plane(shards=4)
    system = SamhitaSystem.cluster(16, config=config)
    tids = [system.add_thread() for _ in range(16)]
    lock = system.create_lock()
    bar = system.create_barrier(16)
    counter = {"v": 0}

    def body(tid):
        addr = yield from system.malloc(tid, 4096)
        for _ in range(3):
            yield from system.acquire_lock(tid, lock)
            counter["v"] += 1
            yield from system.mem_write(tid, addr, 64, None)
            yield from system.release_lock(tid, lock)
            yield from system.barrier_wait(tid, bar)

    run_threads(system, [body(t) for t in tids])
    assert counter["v"] == 48
    report = system.stats_report()
    rows = report["manager_rpcs_by_shard"]
    assert len(rows) == 4
    assert sum(r["requests"] for r in rows) == report["manager"]["requests"]
    # Allocation RPCs spread over the shards (one arena refill per thread,
    # 16 threads, tid % 4 routing).
    assert all(r["alloc"] >= 1 for r in rows)
    assert report["control_plane"]["cr_gathers"] > 0
