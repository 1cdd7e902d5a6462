"""Tests for lock-update-log garbage collection, at barriers and in
programs that only take locks."""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.faults import FaultPlan
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
from repro.runtime import Runtime
from tests.core.conftest import run_threads, u8


def _log_epochs(rt):
    manager = rt.backend.system.manager
    return sum(len(lock.log) for lock in manager._locks.values())


def test_logs_pruned_once_every_thread_has_seen_them():
    """The microbench acquires the lock every outer iteration and ends with
    a barrier: afterwards every thread has consumed every epoch, so the
    manager holds at most the final (unconsumed-by-nobody) round."""
    params = MicrobenchParams(N=8, M=1, S=1, B=64, allocation=Allocation.LOCAL)
    rt = Runtime("samhita", n_threads=4)
    spawn_microbench(rt, params)
    rt.run()
    # N=8 rounds x 4 releases each = 32 epochs appended; GC keeps it tiny.
    assert _log_epochs(rt) <= 8


def test_non_acquiring_threads_still_gate_pruning():
    """A thread that never takes the lock keeps the horizon at zero until a
    barrier delivers it the pending updates."""
    rt = Runtime("samhita", n_threads=2)
    lock = rt.create_lock()
    bar = rt.create_barrier()
    shared = {}

    def acquirer(ctx):
        shared["g"] = yield from ctx.malloc_shared(64)
        for i in range(5):
            yield from ctx.lock(lock)
            payload = np.frombuffer(np.int64(i).tobytes(), np.uint8)
            yield from ctx.write(shared["g"], 8, payload)
            yield from ctx.unlock(lock)
        yield from ctx.barrier(bar)
        final = yield from ctx.read(shared["g"], 8)
        return int(final.view(np.int64)[0])

    def bystander(ctx):
        yield from ctx.barrier(bar)
        data = yield from ctx.read(shared["g"], 8)
        return int(data.view(np.int64)[0])

    rt.spawn(acquirer)
    rt.spawn(bystander)
    result = rt.run()
    # The bystander received the CR updates at the barrier...
    assert result.value_of(1) == 4
    # ...after which the log is fully consumed and pruned.
    assert _log_epochs(rt) == 0


# ----------------------------------------------------------------------
# once-per-round pruning (behind the round's last departure)
# ----------------------------------------------------------------------
P = 8


def _cr_round(system, reissue=False):
    """P threads each store under one lock, then meet at a barrier. With
    ``reissue``, once the round has closed, thread 0's arrival is issued
    again with the number it arrived under -- what a thread whose reply
    was lost (a build that can fail) sends -- and its answer is returned."""
    tids = [system.add_thread() for _ in range(P)]
    lock = system.create_lock()
    bar = system.create_barrier(P)
    shared = {}
    manager = system.manager

    def allocate():
        shared["addr"] = yield from system.malloc(tids[0], 64, shared=True)

    def body(tid):
        if tid != tids[0]:
            yield from system.acquire_lock(tid, lock)
            yield from system.mem_write(tid, shared["addr"], 8, u8(tid))
            yield from system.release_lock(tid, lock)
        yield from system.barrier_wait(tid, bar)

    def reissued():
        shared["answer"] = yield from manager.barrier_arrive(
            system.component_of(tids[0]), bar, {tids[0]: []},
            system.control._numbers[tids[0], bar])

    run_threads(system, [allocate()])
    run_threads(system, [body(tid) for tid in tids])
    if reissue:
        run_threads(system, [reissued()])
    assert manager.stats.get("barrier_rounds") == 1
    appended = manager._locks[lock].log.version
    retained = sum(len(state.log) for state in manager._locks.values())
    return appended, retained, shared.get("answer")


def test_logs_are_empty_behind_a_round_of_consistency_region_stores():
    appended, retained, _ = _cr_round(SamhitaSystem.cluster(n_threads=P))
    assert appended == P - 1  # there was something to prune...
    assert retained == 0      # ...and the last departure pruned it all


def test_a_reissued_arrival_is_answered_from_the_round_it_joined():
    """The re-issue is sent the answer the closed round recorded for it,
    and registers, departs and prunes nothing: the round departed each
    thread once, its last departure pruned the logs to empty, and the
    open round holds no arrival."""
    system = SamhitaSystem.cluster(
        n_threads=P, config=SamhitaConfig(faults=FaultPlan(seed=5)))
    appended, retained, (state, directives) = _cr_round(system, reissue=True)
    assert appended == P - 1
    assert retained == 0
    manager = system.manager
    assert state.generation == 0 and state.departed == P
    [tid] = directives
    assert directives[tid] is state.sent[tid]
    assert manager.stats.get("barrier_reanswers") == 1
    [open_round] = manager._barriers.values()
    assert open_round.generation == 1 and not open_round.arrived
    assert open_round.closed is state


# ----------------------------------------------------------------------
# lock-only programs (no barrier round ever prunes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("functional", [False, True])
@pytest.mark.parametrize("passages", [4, 8, 16])
def test_logs_are_pruned_without_a_barrier(functional, passages):
    """16 threads each take one lock ``passages`` times and store a word
    under it, and never meet at a barrier. Every epoch all 16 have seen
    goes: the log keeps O(threads) epochs, not one per release."""
    threads = 16
    system = SamhitaSystem.cluster(
        n_threads=threads, config=SamhitaConfig(functional=functional))
    tids = [system.add_thread() for _ in range(threads)]
    lock = system.create_lock()
    word = []

    def allocate():
        word.append((yield from system.malloc(tids[0], 8, shared=True)))

    def body(tid):
        for _ in range(passages):
            yield from system.acquire_lock(tid, lock)
            yield from system.mem_write(tid, word[0], 8,
                                        u8(tid) if functional else None)
            yield from system.release_lock(tid, lock)

    run_threads(system, [allocate()])
    run_threads(system, [body(tid) for tid in tids])
    manager = system.manager
    log = manager._locks[lock].log
    assert manager.stats.get("barrier_rounds") == 0
    assert log.version == threads * passages
    assert len(log) <= 2 * threads
