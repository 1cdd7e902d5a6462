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
from repro.core.control_plane import (
    SHARD_SLICE_PAGES,
    ShardedAllocator,
    ShardedPageDirectory,
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
    alloc = ShardedAllocator(SamhitaConfig(manager_shards=4), 4)
    for i, part in enumerate(alloc.parts):
        assert part.base_page == i * SHARD_SLICE_PAGES
        assert shard_of_page(part.base_page, 4) == i
        assert shard_of_page(part.base_page + SHARD_SLICE_PAGES - 1, 4) == i
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
        part = system.allocator.part_for_thread(tid)
        # The address lives inside the owning shard's slice, and the pure
        # page->shard map agrees with the allocating shard.
        assert part.base_page <= page < part.base_page + SHARD_SLICE_PAGES
        assert shard_of_page(page, 2) == tid % 2
        assert system.allocator.home_of_page(page) is not None


def test_sharded_directory_routes_per_page():
    directory = ShardedPageDirectory(2)
    low, high = 7, SHARD_SLICE_PAGES + 7
    directory.add_sharer(low, 0)
    directory.add_sharer(high, 1)
    assert directory.parts[0].sharers_of(low) == {0}
    assert directory.parts[1].sharers_of(high) == {1}
    assert directory.sharers_of(low) == {0}
    assert directory.sharers_of(high) == {1}
    directory.record_owners([low, high], 3)
    assert directory.owner_of(low) == 3 and directory.owner_of(high) == 3
    assert sorted(directory.owned_by(3)) == [low, high]
    assert len(directory) == 2 and low in directory


def test_sharded_directory_has_every_public_name_of_page_directory():
    # The facade stands in for PageDirectory everywhere (system.directory);
    # a bulk method added to one and not the other only fails on the first
    # deployment that reaches it -- as add_sharers did, in timing mode.
    from repro.memory import PageDirectory
    public = {name for name in vars(PageDirectory) if not name.startswith("_")}
    missing = sorted(name for name in public
                     if not hasattr(ShardedPageDirectory, name))
    assert not missing


def test_sharded_directory_bulk_methods_match_the_plain_signatures():
    # Name parity is not enough for the bulk methods: the callers pass
    # ``but=`` and aligned owner vectors by the plain directory's names.
    import inspect
    from repro.memory import PageDirectory
    for name in ("owners_of", "record_owners", "clear_owners", "owned_by",
                 "add_sharers"):
        plain = inspect.signature(getattr(PageDirectory, name))
        sharded = inspect.signature(getattr(ShardedPageDirectory, name))
        assert list(plain.parameters) == list(sharded.parameters), name


def test_sharded_directory_bulk_owners_route_per_slice():
    import numpy as np
    directory = ShardedPageDirectory(3)
    low, mid, high = 7, SHARD_SLICE_PAGES + 7, 2 * SHARD_SLICE_PAGES + 7
    pages = np.array([high, low, mid, low + 1], dtype=np.int64)
    directory.record_owners(pages, np.array([4, 1, 2, 1], dtype=np.int64))
    assert [len(part) for part in directory.parts] == [2, 1, 1]
    assert directory.parts[0].owned_by(1) == [low, low + 1]
    assert directory.owners_of(pages).tolist() == [4, 1, 2, 1]
    assert directory.owners_of(pages, but=1).tolist() == [4, -1, 2, -1]
    assert directory.owned_by() == [low, low + 1, mid, high]
    directory.clear_owners(np.array([low, high], dtype=np.int64))
    assert directory.owners_of(pages).tolist() == [-1, -1, 2, 1]
    assert len(directory) == 2 and mid in directory and high not in directory


def test_sharded_directory_bulk_sharers_route_per_slice():
    directory = ShardedPageDirectory(2)
    low, high = 7, SHARD_SLICE_PAGES + 7
    directory.add_sharers([low, high, low + 1], 5)
    assert directory.parts[0].sharers_of(low) == {5}
    assert directory.parts[0].sharers_of(low + 1) == {5}
    assert directory.parts[1].sharers_of(high) == {5}
    assert directory.parts[1].sharers_of(low) == set()


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


def test_lock_cache_denied_when_leases_armed():
    system, tids = sharded_cluster(2, lock_owner_cache=True,
                                   lock_lease_time=1e-3)
    lock = system.create_lock()

    def owner(tid):
        for _ in range(3):
            yield from system.acquire_lock(tid, lock)
            yield from system.release_lock(tid, lock)

    run_threads(system, [owner(tids[0])])
    report = system.stats_report()
    # Leases revoke by time, which a locally cached grant would dodge:
    # every acquire must keep paying the RPC.
    assert report["lock_cache"].get("lock_cache_hits", 0) == 0
    assert report["manager"]["lock_acquires"] == 3


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
    """The retried-arrival tolerance only arms with a fault model
    (``config.faults``); fault-free sharded builds must still treat a
    duplicate same-generation arrival as a protocol violation."""
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
