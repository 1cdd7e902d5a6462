"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine, Timeout


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_run_empty_engine_returns_zero():
    assert Engine().run() == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    seen = []

    def proc():
        yield Timeout(1.5)
        seen.append(eng.now)
        yield Timeout(0.5)
        seen.append(eng.now)

    eng.process(proc(), name="t")
    eng.run()
    assert seen == [1.5, 2.0]


def test_timeout_zero_is_allowed():
    eng = Engine()

    def proc():
        yield Timeout(0.0)
        return "ok"

    p = eng.process(proc())
    eng.run()
    assert p.done_event.value == "ok"


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_timeout_carries_value():
    eng = Engine()
    got = []

    def proc():
        got.append((yield Timeout(1.0, value="payload")))

    eng.process(proc())
    eng.run()
    assert got == ["payload"]


def test_equal_time_events_run_in_schedule_order():
    eng = Engine()
    order = []
    for label in "abc":
        eng.schedule(1.0, lambda label=label: order.append(label))
    eng.run()
    assert order == ["a", "b", "c"]


def test_schedule_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-0.1, lambda: None)


def test_run_until_stops_early():
    eng = Engine()
    fired = []
    eng.schedule(5.0, lambda: fired.append(True))
    assert eng.run(until=2.0) == 2.0
    assert not fired
    eng.run()
    assert fired


def test_process_return_value_via_join():
    eng = Engine()

    def child():
        yield Timeout(1.0)
        return 42

    def parent():
        value = yield eng.process(child(), name="child")
        return value + 1

    p = eng.process(parent(), name="parent")
    eng.run()
    assert p.done_event.value == 43


def test_join_already_finished_process():
    eng = Engine()

    def child():
        return 7
        yield  # pragma: no cover

    def parent():
        c = eng.process(child(), name="child")
        yield Timeout(10.0)
        value = yield c
        return value

    p = eng.process(parent(), name="parent")
    eng.run()
    assert p.done_event.value == 7


def test_event_succeed_wakes_waiter_with_value():
    eng = Engine()
    ev = eng.event("e")
    got = []

    def waiter():
        got.append((yield ev))

    eng.process(waiter())
    eng.schedule(3.0, lambda: ev.succeed("hello"))
    eng.run()
    assert got == ["hello"]


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event("e")

    def waiter():
        with pytest.raises(ValueError):
            yield ev
        return "handled"

    p = eng.process(waiter())
    eng.schedule(1.0, lambda: ev.fail(ValueError("boom")))
    eng.run()
    assert p.done_event.value == "handled"


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        _ = eng.event().value


def test_unhandled_process_exception_aborts_run():
    eng = Engine()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("kaboom")

    eng.process(bad(), name="bad")
    with pytest.raises(SimulationError, match="bad"):
        eng.run()


def test_yielding_garbage_raises_in_process():
    eng = Engine()

    def bad():
        with pytest.raises(SimulationError):
            yield 12345
        return "caught"

    p = eng.process(bad())
    eng.run()
    assert p.done_event.value == "caught"


def test_deadlock_detection():
    eng = Engine()

    def stuck():
        yield eng.event("never")

    eng.process(stuck(), name="stuck")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    assert "stuck" in str(exc.value)


def test_daemon_processes_do_not_deadlock():
    eng = Engine()

    def server():
        yield eng.event("never")

    eng.process(server(), name="srv", daemon=True)
    assert eng.run() == 0.0


def test_many_processes_interleave_deterministically():
    eng = Engine()
    log = []

    def worker(i):
        for step in range(3):
            yield Timeout(1.0)
            log.append((eng.now, i, step))

    for i in range(4):
        eng.process(worker(i), name=f"w{i}")
    eng.run()
    # At each integer time, workers fire in spawn order.
    expected = [(float(t), i, t - 1) for t in (1, 2, 3) for i in range(4)]
    assert log == expected


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_live_processes_listing():
    eng = Engine()

    def proc():
        yield Timeout(1.0)

    eng.process(proc(), name="p")
    assert len(eng.live_processes) == 1
    eng.run()
    assert eng.live_processes == []


def test_epoch_peak_is_the_final_length_of_the_largest_slice():
    eng = Engine()
    for _ in range(3):
        eng.schedule(1.0, eng.schedule, 0.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.run()
    assert eng.epochs_run == 2
    assert eng.epoch_peak == 6  # three records, each appending one
