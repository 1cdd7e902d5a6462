"""Tests for engine-level mutex / barrier / resource."""

import pytest

from repro.errors import SimulationError, SynchronizationError
from repro.sim import Engine, Resource, SimBarrier, SimMutex, Timeout


def run_all(eng, gens, names=None):
    procs = [eng.process(g, name=(names[i] if names else f"p{i}")) for i, g in enumerate(gens)]
    eng.run()
    return procs


class TestMutex:
    def test_uncontended_acquire_release(self):
        eng = Engine()
        m = SimMutex(eng)

        def proc():
            me = object()
            yield from m.acquire(me)
            assert m.locked and m.owner is me
            m.release(me)
            assert not m.locked

        run_all(eng, [proc()])
        assert m.acquisitions == 1
        assert m.contended_acquisitions == 0

    def test_mutual_exclusion_and_fifo_order(self):
        eng = Engine()
        m = SimMutex(eng)
        log = []

        def proc(i):
            yield Timeout(0.0)
            yield from m.acquire(i)
            log.append(("in", i, eng.now))
            yield Timeout(1.0)
            log.append(("out", i, eng.now))
            m.release(i)

        run_all(eng, [proc(i) for i in range(3)])
        # Critical sections must not overlap and must be FIFO.
        assert log == [
            ("in", 0, 0.0), ("out", 0, 1.0),
            ("in", 1, 1.0), ("out", 1, 2.0),
            ("in", 2, 2.0), ("out", 2, 3.0),
        ]
        assert m.contended_acquisitions == 2

    def test_release_unheld_raises(self):
        eng = Engine()
        m = SimMutex(eng)
        with pytest.raises(SynchronizationError):
            m.release()

    def test_release_by_non_owner_raises(self):
        eng = Engine()
        m = SimMutex(eng)

        def proc():
            yield from m.acquire("a")
            with pytest.raises(SynchronizationError):
                m.release("b")
            m.release("a")

        run_all(eng, [proc()])


class TestBarrier:
    def test_all_parties_released_together(self):
        eng = Engine()
        bar = SimBarrier(eng, 3)
        released = []

        def proc(i):
            yield Timeout(float(i))
            yield from bar.wait()
            released.append((i, eng.now))

        run_all(eng, [proc(i) for i in range(3)])
        assert all(t == 2.0 for _, t in released)

    def test_barrier_is_reusable(self):
        eng = Engine()
        bar = SimBarrier(eng, 2)
        log = []

        def proc(i):
            for r in range(3):
                yield Timeout(1.0 + i)
                yield from bar.wait()
                log.append((r, i, eng.now))

        run_all(eng, [proc(0), proc(1)])
        rounds = {r for (r, _, _) in log}
        assert rounds == {0, 1, 2}
        # Within a round both parties release at the same (later) arrival time.
        for r in range(3):
            times = {t for (rr, _, t) in log if rr == r}
            assert len(times) == 1

    def test_wait_returns_arrival_index(self):
        eng = Engine()
        bar = SimBarrier(eng, 2)
        got = {}

        def proc(i):
            yield Timeout(float(i))
            got[i] = yield from bar.wait()

        run_all(eng, [proc(0), proc(1)])
        assert got == {0: 0, 1: 1}

    def test_zero_parties_rejected(self):
        with pytest.raises(SimulationError):
            SimBarrier(Engine(), 0)


class TestResource:
    def test_queueing_delay_measured(self):
        eng = Engine()
        res = Resource(eng, capacity=1, name="server")

        def client(i):
            yield Timeout(0.0)
            yield from res.use(2.0)

        run_all(eng, [client(i) for i in range(3)])
        assert eng.now == 6.0
        assert res.total_requests == 3
        assert res.total_busy_time == pytest.approx(6.0)
        # Second waits 2s, third waits 4s.
        assert res.total_queue_time == pytest.approx(6.0)

    def test_capacity_two_halves_makespan(self):
        eng = Engine()
        res = Resource(eng, capacity=2)

        def client():
            yield from res.use(2.0)

        run_all(eng, [client() for _ in range(4)])
        assert eng.now == 4.0

    def test_release_without_request_raises(self):
        with pytest.raises(SimulationError):
            Resource(Engine()).release()

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)
