"""Chaos kill tests for the sharded control plane.

With ``manager_shards=2`` on a cluster machine, ``node0`` and ``node1``
are manager shards (memory servers shift to ``node2``/``node3``). Killing
``node1`` permanently mid-run must be survivable: the heartbeat detector
declares the shard dead, its lock/barrier/cond tables merge into the ring
successor (``node0``), blocked callers retry against the successor, and
the run finishes with mutual exclusion intact.

The tree-barrier cases kill the shard that is both a barrier's root and a
cell's combiner, then arrive before the detector has declared it: both
upstream hops of a combining arrival must wait the failover out. Kills
may land mid-round: the shard dies the instant a round closes, its
departure replies are lost, and every arrival that lost its answer is
re-issued to the successor and answered from the round it joined.
"""

import pytest

from repro.core.control_plane import ControlPlane
from repro.core.manager import Manager
from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.faults import permanent_crash
from repro.sim.engine import Timeout

from tests.chaos.conftest import chaos_seeds

pytestmark = pytest.mark.chaos

N_THREADS = 4
#: Crash inside the quiet window between the two lock phases (phase 1
#: finishes within ~0.1 ms; phase 2 starts at 1 ms).
CRASH_AT = 3e-4
PHASE2_AT = 1e-3


def _sharded_replicated(faults=None) -> SamhitaConfig:
    return SamhitaConfig(manager_shards=2, n_memory_servers=2,
                         replication_factor=2, faults=faults)


def _build(config):
    system = SamhitaSystem.cluster(N_THREADS, config=config)
    tids = [system.add_thread() for _ in range(N_THREADS)]
    return system, tids


def _run_two_phase(system, tids):
    """Lock-protected increments on a shard-1 lock before and after the
    kill window; returns (state dict, stats report)."""
    locks = [system.create_lock(), system.create_lock()]
    # ID routing is id % 2: one of the two locks lives on shard 1.
    shard1_locks = [l for l in locks
                    if system.control.shard_index(l) == 1]
    assert shard1_locks, "expected a lock homed on shard 1"
    state = {"count": 0, "in_cr": 0, "max_in_cr": 0}

    def body(tid):
        for lock in locks:
            for _ in range(2):
                yield from system.acquire_lock(tid, lock)
                state["in_cr"] += 1
                state["max_in_cr"] = max(state["max_in_cr"], state["in_cr"])
                state["count"] += 1
                yield Timeout(1e-6)
                state["in_cr"] -= 1
                yield from system.release_lock(tid, lock)
        # Quiet window: the shard dies while nothing is in flight.
        yield Timeout(PHASE2_AT)
        for lock in locks:
            yield from system.acquire_lock(tid, lock)
            state["in_cr"] += 1
            state["max_in_cr"] = max(state["max_in_cr"], state["in_cr"])
            state["count"] += 1
            yield Timeout(1e-6)
            state["in_cr"] -= 1
            yield from system.release_lock(tid, lock)

    for i, tid in enumerate(tids):
        system.process(body(tid), name=f"t{i}")
    system.run()
    return state, system.stats_report()


@pytest.mark.parametrize("seed", chaos_seeds())
def test_lock_service_survives_shard_kill(seed):
    plan = permanent_crash(seed, "node1", at=CRASH_AT)
    system, tids = _build(_sharded_replicated(plan))
    state, report = _run_two_phase(system, tids)
    # Every critical section ran, one at a time, across the failover.
    assert state["count"] == N_THREADS * 6
    assert state["max_in_cr"] == 1
    # The failover actually happened (rather than the schedule missing).
    assert report["control_plane"].get("shard_failovers", 0) == 1
    rows = {r["shard"]: r for r in report["manager_rpcs_by_shard"]}
    assert rows[1]["dead"] is True
    assert rows[0]["dead"] is False
    assert report["replication"].get("shards_declared_dead", 0) >= 1
    assert report["faults"].get("crash_drops", 0) > 0
    # Post-failover traffic for shard-1 IDs lands on the successor.
    assert system.control.live_index(1) == 0


def _run_tree_barriers_across_kill(seed, n_threads):
    """Two tree-barrier rounds on a shard-1 barrier, the kill, arrivals at
    t = 3.05e-4 (after the crash, before the detector has declared it),
    two more rounds. Returns (threads finished, end instant, report)."""
    plan = permanent_crash(seed, "node1", at=CRASH_AT)
    system = SamhitaSystem.cluster(
        n_threads, config=_sharded_replicated(plan).with_(tree_barriers=True))
    tids = [system.add_thread() for _ in range(n_threads)]
    bar = system.create_barrier(n_threads)
    assert system.control.shard_index(bar) == 1
    done = []

    def body(tid):
        for _ in range(2):
            yield from system.barrier_wait(tid, bar)
        yield Timeout(3.05e-4 - system.engine.now)
        for _ in range(2):
            yield from system.barrier_wait(tid, bar)
        done.append(tid)

    for i, tid in enumerate(tids):
        system.process(body(tid), name=f"t{i}")
    system.run()
    return len(done), system.engine.now, system.stats_report()


@pytest.mark.parametrize("n_threads", [
    16,  # one node per cell: each node leader arrives at the root shard
    32,  # two per cell: leader -> combiner shard 1, cell 0's leader -> root
])
@pytest.mark.parametrize("seed", chaos_seeds())
def test_tree_barrier_survives_shard_kill(seed, n_threads):
    """Every hop of a combining arrival is a routed control RPC: a leader
    whose combiner or root shard died waits out the detection window and
    re-issues against the successor, like a flat arrival does."""
    finished, _now, report = _run_tree_barriers_across_kill(seed, n_threads)
    assert finished == n_threads
    assert report["control_plane"].get("shard_failovers", 0) == 1
    assert report["control_plane"].get("shard_failover_retries", 0) >= 1
    assert report["faults"].get("crash_drops", 0) > 0


def _run_tree_rounds(seed, crash_at, rounds=3, n_threads=32):
    """Tree-barrier rounds on a shard-0 barrier at 32 threads (4 nodes, 2
    cells of two; cell 1 combines on shard 1 = ``node1``), with ``node1``
    killed at ``crash_at``. Returns (system, per-round arrival and
    departure instants, threads finished)."""
    plan = permanent_crash(seed, "node1", at=crash_at)
    system = SamhitaSystem.cluster(
        n_threads, config=_sharded_replicated(plan).with_(tree_barriers=True))
    tids = [system.add_thread() for _ in range(n_threads)]
    bar = system.create_barrier(n_threads)
    while system.control.shard_index(bar) != 0:
        bar = system.create_barrier(n_threads)
    arrived = [[] for _ in range(rounds)]
    departed = [[] for _ in range(rounds)]
    done = []

    def body(tid):
        for r in range(rounds):
            arrived[r].append(system.engine.now)
            yield from system.barrier_wait(tid, bar)
            departed[r].append(system.engine.now)
        done.append(tid)

    for i, tid in enumerate(tids):
        system.process(body(tid), name=f"t{i}")
    system.run()
    return system, arrived, departed, len(done)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_tree_cell_answer_lost_with_its_shard_is_answered_again(
        seed, monkeypatch):
    """``node1`` dies the instant cell 1 closes its second round, before
    any of the cell's replies have left. The cell leader's reply and its
    waiting node leader's answer are both lost; each re-issues to the
    successor and is answered from the round it joined -- not joined into
    the next round as a fresh arrival, which would close that round early
    or wedge it."""
    departs = []
    cell_depart = ControlPlane._cell_depart

    def record(self, waiting, cell_idx, *rest):
        if cell_idx == 1:
            departs.append(self.system.engine.now)
        cell_depart(self, waiting, cell_idx, *rest)

    monkeypatch.setattr(ControlPlane, "_cell_depart", record)
    _run_tree_rounds(seed, crash_at=1.0)  # armed, never crashes
    assert len(departs) == 3  # one waiting node leader per round
    monkeypatch.undo()

    system, arrived, departed, finished = _run_tree_rounds(
        seed, crash_at=departs[1])
    assert finished == 32
    for r in range(3):
        # No thread left a round before every thread had arrived at it.
        assert min(departed[r]) >= max(arrived[r])
    assert system.managers[0].stats.get("barrier_rounds") == 3
    report = system.stats_report()
    # The waiting node leader's re-issue, answered at the cell level.
    assert report["manager"].get("barrier_reanswers", 0) >= 1
    assert report["control_plane"].get("shard_failovers", 0) == 1
    assert report["control_plane"].get("shard_failover_retries", 0) >= 2
    assert report["faults"].get("crash_drops", 0) > 0


def _run_flat_rounds(seed, crash_at, rounds=3):
    """Flat barrier rounds on a shard-1 barrier, ``node1`` killed at
    ``crash_at``. Returns (system, threads finished)."""
    plan = permanent_crash(seed, "node1", at=crash_at)
    system, tids = _build(_sharded_replicated(plan))
    bar = system.create_barrier(N_THREADS)
    while system.control.shard_index(bar) != 1:
        bar = system.create_barrier(N_THREADS)
    done = []

    def body(tid):
        for _ in range(rounds):
            yield Timeout(1e-6 * tid)
            yield from system.barrier_wait(tid, bar)
        done.append(tid)

    for i, tid in enumerate(tids):
        system.process(body(tid), name=f"t{i}")
    system.run()
    return system, len(done)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_flat_barrier_answer_lost_with_its_shard_is_answered_again(
        seed, monkeypatch):
    """``node1`` dies the instant it closes the second round, with three
    arrivals parked: every departure reply is lost. Each thread re-issues
    its arrival to the successor under the number it arrived with, and is
    answered from the round it joined -- not counted into the next round,
    which would leave the threads a round apart and wedge them."""
    closes = []
    close_round = Manager._close_round

    def record(self, state, *rest):
        if state.waiting:
            closes.append(self.engine.now)
        close_round(self, state, *rest)

    monkeypatch.setattr(Manager, "_close_round", record)
    _run_flat_rounds(seed, crash_at=1.0)  # armed, never crashes
    assert len(closes) == 3
    monkeypatch.undo()

    system, finished = _run_flat_rounds(seed, crash_at=closes[1])
    assert finished == N_THREADS
    report = system.stats_report()
    assert report["manager"]["barrier_rounds"] == 3
    assert report["manager"].get("barrier_reanswers", 0) >= 1
    assert report["control_plane"].get("shard_failovers", 0) == 1
    assert report["faults"].get("crash_drops", 0) > 0


@pytest.mark.parametrize("seed", [chaos_seeds()[0]])
def test_tree_barrier_shard_kill_replays_bit_identically(seed):
    def run():
        finished, now, report = _run_tree_barriers_across_kill(seed, 32)
        return finished, now, report["manager"], report["faults"]

    assert run() == run()


@pytest.mark.parametrize("seed", [chaos_seeds()[0]])
def test_shard_kill_replays_bit_identically(seed):
    """Same plan, same seed: the crash, detection, merge and retries all
    draw from deterministic streams, so the trajectory replays exactly."""
    def run():
        plan = permanent_crash(seed, "node1", at=CRASH_AT)
        system, tids = _build(_sharded_replicated(plan))
        state, report = _run_two_phase(system, tids)
        return state, system.engine.now, report["manager"], report["faults"]

    assert run() == run()


def test_healthy_sharded_replicated_run_does_not_fail_over():
    """No faults: two shards, two replicated homes, zero failovers and no
    false-positive shard deaths from the detector."""
    system, tids = _build(_sharded_replicated())
    state, report = _run_two_phase(system, tids)
    assert state["count"] == N_THREADS * 6
    assert report["control_plane"].get("shard_failovers", 0) == 0
    assert all(not r["dead"] for r in report["manager_rpcs_by_shard"])


def test_losing_both_shards_is_fatal():
    """The last live shard has no successor: failover must refuse rather
    than silently drop the sync state."""
    from repro.errors import ReplicationError

    system, _tids = _build(_sharded_replicated())
    system.control.handle_shard_failure(0)
    with pytest.raises(ReplicationError):
        system.control.handle_shard_failure(1)


def test_merged_state_preserves_barrier_generation():
    """A barrier homed on the dead shard keeps counting rounds on the
    successor."""
    system, tids = _build(_sharded_replicated())
    bar = system.create_barrier(N_THREADS)
    while system.control.shard_index(bar) != 1:
        bar = system.create_barrier(N_THREADS)

    def body(tid):
        yield from system.barrier_wait(tid, bar)
        if tid == tids[0]:
            system.control.handle_shard_failure(1)
        yield Timeout(1e-5)
        yield from system.barrier_wait(tid, bar)

    for i, tid in enumerate(tids):
        system.process(body(tid), name=f"t{i}")
    system.run()
    successor = system.managers[0]
    assert successor._barriers[bar].generation == 2
