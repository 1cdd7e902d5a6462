"""Direct unit tests of the Manager's protocol state machines."""

import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.errors import SynchronizationError
from repro.faults import FaultPlan
from tests.core.conftest import run_threads


@pytest.fixture
def system():
    sys_ = SamhitaSystem.cluster(n_threads=4)
    for _ in range(4):
        sys_.add_thread()
    return sys_


class TestLockStateMachine:
    def test_fifo_handoff_order(self, system):
        lock = system.create_lock()
        order = []

        def body(tid):
            from repro.sim import Timeout
            yield Timeout(tid * 1e-6)  # deterministic arrival order
            yield from system.acquire_lock(tid, lock)
            order.append(tid)
            yield Timeout(50e-6)
            yield from system.release_lock(tid, lock)

        run_threads(system, [body(t) for t in system.thread_ids])
        assert order == [0, 1, 2, 3]

    def test_unknown_lock_id_rejected(self, system):
        def body():
            with pytest.raises(SynchronizationError):
                yield from system.acquire_lock(0, 999)

        run_threads(system, [body()])

    def test_holds_lock_query(self, system):
        lock = system.create_lock()

        def body():
            assert not system.manager.holds_lock(0, lock)
            yield from system.acquire_lock(0, lock)
            assert system.manager.holds_lock(0, lock)
            assert not system.manager.holds_lock(1, lock)
            yield from system.release_lock(0, lock)
            assert not system.manager.holds_lock(0, lock)

        run_threads(system, [body()])


class TestBarrierStateMachine:
    def test_double_arrival_same_generation_rejected(self, system):
        bar = system.create_barrier(2)

        def sneaky():
            # Arrive twice without any other party: second arrival belongs
            # to the same generation and must be rejected.
            state = system.manager._barrier(bar)
            state.arrived[0] = []
            with pytest.raises(SynchronizationError):
                yield from system.manager.barrier_arrive("node2", bar, {0: []})

        run_threads(system, [sneaky()])

    def test_double_arrival_rejected_under_a_silent_fault_plan(self):
        """One registration rule for every build: a thread registered in
        a round still open cannot register again when a fault plan numbers
        arrivals, as on a build without one."""
        system = SamhitaSystem.cluster(n_threads=2, config=SamhitaConfig(
            manager_shards=2, faults=FaultPlan()))
        tid = system.add_thread()
        system.add_thread()
        bar = system.create_barrier(2)

        def sneaky():
            root = system.control.shard_for_id(bar)
            root._barrier(bar).arrived[tid] = []
            with pytest.raises(SynchronizationError):
                yield from system.control.barrier_arrive(
                    tid, system.component_of(tid), bar, [])

        run_threads(system, [sneaky()])

    def test_zero_party_barrier_rejected(self, system):
        with pytest.raises(SynchronizationError):
            system.create_barrier(0)

    def test_generation_counter_advances(self, system):
        bar = system.create_barrier(4)

        def body(tid):
            for _ in range(3):
                yield from system.barrier_wait(tid, bar)

        run_threads(system, [body(t) for t in system.thread_ids])
        assert system.manager._barrier(bar).generation == 3

    def test_unknown_barrier_rejected(self, system):
        def body():
            with pytest.raises(SynchronizationError):
                yield from system.barrier_wait(0, 999)

        run_threads(system, [body()])


class TestCondStateMachine:
    def test_signal_with_no_waiters_returns_zero(self, system):
        cond = system.create_cond()

        def body():
            woken = yield from system.cond_signal(0, cond)
            return woken

        [p] = [system.process(body(), name="t0")]
        system.run()
        assert p.done_event.value == 0

    def test_unknown_cond_rejected(self, system):
        def body():
            with pytest.raises(SynchronizationError):
                yield from system.cond_signal(0, 999)

        run_threads(system, [body()])


class TestKnownThreads:
    def test_population_registered(self, system):
        assert system.manager.known_threads == {0, 1, 2, 3}
