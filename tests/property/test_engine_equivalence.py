"""Property tests: the shipped engine is bit-identical to the reference heap.

Random programs of Timeout / AdvanceTo / SimEvent / Process operations run
through the epoch-sliced :class:`Engine` and through the per-event heap kept
as an oracle in ``tests/sim/reference_engine.py``; the observable trajectory
-- every ``(now, seq)`` pair at every resumption, the coalesced count, the
final clock, even the deadlock diagnosis -- must match exactly. The epoch
queue may only change *how* pending work is stored, never what runs when;
and against the oracle with its inline advance switched off, the fast paths
may only change queue traffic, never simulated time.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import AdvanceTo, Engine, Timeout
from repro.sim.resources import Resource

from tests.sim.reference_engine import ReferenceEngine, ReferenceResource

#: Delays drawn from a small grid so distinct processes collide on the same
#: instant often -- equal-time collisions are exactly what exercises epoch
#: bucketing (and the seq tie-break in the reference heap).
DELAY_GRID = (0.0, 1e-6, 2e-6, 1e-5, 0.25, 0.5, 1.0)

N_EVENTS = 4

ops = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAY_GRID)),
    st.tuples(st.just("advance_to"), st.sampled_from(DELAY_GRID)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1),
              st.integers(0, 99)),
    st.tuples(st.just("timer"), st.sampled_from(DELAY_GRID),
              st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("join"), st.integers(0, 7)),
)

programs = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=5)


def run_program(eng, program, until=math.inf):
    """Drive one random program; return its full observable trajectory."""
    events = [eng.event(name=f"ev{i}") for i in range(N_EVENTS)]
    trace = []
    procs = []

    def body(pid, prog):
        for k, op in enumerate(prog):
            kind = op[0]
            if kind == "timeout":
                yield Timeout(op[1])
            elif kind == "advance_to":
                yield AdvanceTo(eng.now + op[1])
            elif kind == "wait":
                got = yield events[op[1]]
                trace.append(("got", pid, k, got))
            elif kind == "trigger":
                ev = events[op[1]]
                if not ev.triggered:
                    ev.succeed(op[2])
            elif kind == "timer":
                delay, i = op[1], op[2]
                ev = events[i]

                def fire(ev=ev, val=i):
                    if not ev.triggered:
                        ev.succeed(val)

                eng.schedule(delay, fire)
            elif kind == "join":
                if pid:  # only earlier processes: no forward cycles
                    yield procs[op[1] % pid]
            trace.append((pid, k, eng.now, eng._seq))

    for pid, prog in enumerate(program):
        procs.append(eng.process(body(pid, prog), name=f"p{pid}"))
    outcome = "drained"
    try:
        eng.run(until=until)
    except DeadlockError as exc:
        outcome = ("deadlock", eng.now, sorted(p.name for p in exc.blocked))
    return {
        "trace": trace,
        "outcome": outcome,
        "now": eng.now,
        "seq": eng.scheduled_events,
        "coalesced": eng.coalesced_events,
        "live": sorted(p.name for p in eng.live_processes),
    }


HORIZONS = st.sampled_from([0.0, 1e-6, 0.3, 0.75, 2.0])


def _simulated(run):
    """What a run looks like in simulated time: every (pid, op, now)
    observation, the final clock and the outcome -- the seq column and the
    queue-traffic counters dropped."""
    return ([rec[:3] for rec in run["trace"]], run["now"], run["outcome"])


@given(programs)
@settings(max_examples=120, deadline=None)
def test_epoch_engine_matches_scalar_engine(program):
    assert (run_program(Engine(), program)
            == run_program(ReferenceEngine(), program))


@given(programs, HORIZONS)
@settings(max_examples=60, deadline=None)
def test_equivalence_holds_under_a_run_horizon(program, until):
    assert (run_program(Engine(), program, until=until)
            == run_program(ReferenceEngine(), program, until=until))


@given(programs)
@settings(max_examples=60, deadline=None)
def test_coalescing_never_changes_the_simulated_trajectory(program):
    """Against the heap that queues every resumption, the shipped engine
    must agree on every (pid, op, now) observation and the final clock;
    only queue traffic (seq, coalesced) may differ."""
    on = run_program(Engine(), program)
    off = run_program(ReferenceEngine(coalesce=False), program)
    assert _simulated(on) == _simulated(off)
    assert off["coalesced"] == 0


@given(programs, HORIZONS)
@settings(max_examples=60, deadline=None)
def test_equivalence_holds_with_coalescing_off(program, until):
    """The same, stopped at a run horizon: an inline advance may never
    carry a process past ``until`` when the queued resumption would have
    stayed parked."""
    on = run_program(Engine(), program, until=until)
    off = run_program(ReferenceEngine(coalesce=False), program, until=until)
    assert _simulated(on) == _simulated(off)


# ----------------------------------------------------------------------
# deterministic epoch-core corner cases
# ----------------------------------------------------------------------

def test_mid_slice_same_time_appends_dispatch_in_order():
    eng = Engine()
    order = []
    eng.schedule(1.0, lambda: (order.append("a"),
                               eng.schedule(0.0, lambda: order.append("c"))))
    eng.schedule(1.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 1.0
    assert eng.epochs_run == 1  # one epoch absorbed the live append
    assert not eng._buckets and not eng._times


def test_epoch_engine_retains_undispatched_tail_on_error():
    eng = Engine()
    ran = []

    def boom():
        raise SimulationError("mid-slice failure")

    eng.schedule(1.0, ran.append, 1)
    eng.schedule(1.0, boom)
    eng.schedule(1.0, ran.append, 3)
    with pytest.raises(SimulationError):
        eng.run()
    assert ran == [1]
    assert eng.pending_epochs().tolist() == [1.0]  # tail still queued
    eng.run()
    assert ran == [1, 3]


def _self_append(eng, how):
    """A two-record slice at 1.0 (a timer pending at 2.0) whose last record
    appends two more to it, by ``how``. Every record notes ``(label, now,
    _next_time, seq, coalesced)``."""
    seen = []

    def note(label):
        seen.append((label, eng.now, eng._next_time, eng._seq,
                     eng.coalesced_events))

    gate = eng.event("gate")

    def waiter(label):
        yield gate
        note(label)

    def parker():
        note("last")
        eng.schedule(0.0, note, "c1")
        yield Timeout(0.0)  # a record is due now: parked behind it
        note("c2")

    def last():
        note("last")
        if how == "schedule":
            eng.schedule(0.0, note, "c1")
            eng.schedule(0.0, note, "c2")
        elif how == "schedule_at":
            eng.schedule_at(eng.now, note, "c1")
            eng.schedule_at(eng.now, note, "c2")
        else:
            gate.succeed()

    if how == "resume_waiters":
        for label in ("c1", "c2"):
            eng.process(waiter(label), name=label)
    eng.schedule(2.0, note, "later")
    eng.schedule(1.0, note, "first")
    if how == "timeout":
        eng.schedule(1.0, lambda: None)
        eng.process(_delayed(1.0, parker()), name="parker")
    else:
        eng.schedule(1.0, last)
    eng.run()
    return seen


def _delayed(delay, gen):
    yield Timeout(delay)
    yield from gen


@pytest.mark.parametrize("how", ["schedule", "schedule_at", "resume_waiters",
                                 "timeout"])
def test_last_record_appending_to_its_own_slice(how):
    """The record that ends its slice appends two more to it: it saw the
    next epoch while last, the first appended record sees ``now`` (the
    second is still due), the second sees the next epoch again -- as on
    the per-event heap -- and the slice's final length is the peak."""
    eng, ref = Engine(), ReferenceEngine()
    seen = _self_append(eng, how)
    assert seen == _self_append(ref, how)
    nexts = {label: next_time for label, now, next_time, _seq, _c in seen}
    assert nexts["last"] == 2.0
    assert nexts["c1"] == 1.0
    assert nexts["c2"] == 2.0
    assert [label for label, *_ in seen][-1] == "later"
    peak = 5 if how == "timeout" else 4  # + the parker's own start record
    assert eng.epoch_peak == peak


def test_exception_mid_slice_keeps_the_rest_queued_after_a_self_append():
    """A record appends to its own slice and then raises: the appended
    record and the rest of the slice stay queued at their instant, and the
    next run dispatches them in order -- as the per-event heap does."""
    def drive(eng):
        ran = []

        def boom():
            eng.schedule(0.0, ran.append, "appended")
            raise SimulationError("mid-slice failure")

        eng.schedule(1.0, ran.append, "a")
        eng.schedule(1.0, boom)
        eng.schedule(1.0, ran.append, "c")
        with pytest.raises(SimulationError):
            eng.run()
        pending = (eng.now, eng._next_time, list(ran))
        eng.run()
        return pending, ran, eng.now, eng.scheduled_events

    eng = Engine()
    assert drive(eng) == drive(ReferenceEngine())
    (now, next_time, ran_then), ran, _, _ = drive(Engine())
    assert (now, next_time, ran_then) == (1.0, 1.0, ["a"])
    assert ran == ["a", "c", "appended"]
    assert eng.epochs_run == 2 and eng.epoch_peak == 2


def test_clear_pending_empties_both_columns():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.clear_pending()
    assert not eng._times and not eng._buckets
    assert eng.run() == 0.0


# ----------------------------------------------------------------------
# fused request legs: Resource.use(duration, at=...) against the oracle
# ----------------------------------------------------------------------
# A request in flight is an engine callback at its arrival instant on the
# shipped engine; on the reference heap the sender wakes for its arrival
# (``yield AdvanceTo(at)``) and queues at a ReferenceResource, which knows
# nothing but Timeout and SimEvent. Same trajectory, same grant order, same
# books -- or the callback does not stand where the resumption stood.

FLIGHT_GRID = (0.0, 1e-6, 2e-6, 3e-6, 0.25, 0.5)
SERVICE_GRID = (0.0, 1e-6, 1.5e-6, 0.25, 1.0)

sender_ops = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAY_GRID)),
    st.tuples(st.just("send"), st.sampled_from(FLIGHT_GRID),
              st.sampled_from(SERVICE_GRID)),
    st.tuples(st.just("send"), st.sampled_from(FLIGHT_GRID),
              st.sampled_from(SERVICE_GRID)),
    st.tuples(st.just("timer"), st.sampled_from(DELAY_GRID)),
)
sender_programs = st.lists(st.lists(sender_ops, max_size=5),
                           min_size=1, max_size=6)


def run_senders(eng, res, fused, program, until=math.inf):
    """Several senders reach one server; ``fused`` picks the spelling."""
    trace, served = [], []

    def body(pid, prog):
        for k, op in enumerate(prog):
            if op[0] == "timeout":
                yield Timeout(op[1])
            elif op[0] == "timer":
                eng.schedule(op[1], trace.append, ("tick", pid, k))
            else:
                at = eng.now + op[1]
                if fused:
                    yield from res.use(op[2], at=at)
                else:
                    yield AdvanceTo(at)
                    yield from res.use(op[2])
                served.append(pid)
            trace.append((pid, k, eng.now, eng._seq, eng.coalesced_events))

    for pid, prog in enumerate(program):
        eng.process(body(pid, prog), name=f"s{pid}")
    eng.run(until=until)
    return {
        "trace": trace,
        "served": served,
        "now": eng.now,
        "seq": eng.scheduled_events,
        "coalesced": eng.coalesced_events,
        "epochs": None if isinstance(eng, ReferenceEngine) else eng.epochs_run,
        "requests": res.total_requests,
        "queue_time": res.total_queue_time,
        "busy_time": res.total_busy_time,
        "in_use": res._in_use,
        "queued": len(res._waiters),
        "live": sorted(p.name for p in eng.live_processes),
    }


def fused_and_reference(program, capacity=1, until=math.inf):
    eng, ref = Engine(), ReferenceEngine()
    fused = run_senders(eng, Resource(eng, capacity), True, program, until)
    unfused = run_senders(ref, ReferenceResource(ref, capacity), False,
                          program, until)
    fused.pop("epochs"), unfused.pop("epochs")
    return fused, unfused


@given(sender_programs, st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_fused_request_legs_match_the_unfused_oracle(program, capacity):
    fused, unfused = fused_and_reference(program, capacity)
    assert fused == unfused


@given(sender_programs, st.integers(1, 2), HORIZONS)
@settings(max_examples=100, deadline=None)
def test_fused_request_legs_match_under_a_run_horizon(program, capacity, until):
    fused, unfused = fused_and_reference(program, capacity, until)
    assert fused == unfused


@given(sender_programs)
@settings(max_examples=60, deadline=None)
def test_fused_and_unfused_spellings_agree_on_the_shipped_engine(program):
    """The same, with both spellings on ``Engine`` + ``Resource``: epochs
    dispatched included (the suite fingerprint hashes ``epochs_run``)."""
    one, two = Engine(), Engine()
    assert (run_senders(one, Resource(one), True, program)
            == run_senders(two, Resource(two), False, program))


def test_two_arrivals_tied_at_one_instant_are_granted_in_sequence_order():
    # s0 leaves at 0 with a flight of 0.25; s1 leaves at 0.125 with one of
    # 0.125: both reach the server at 0.25, s0's callback scheduled first.
    program = [[("send", 0.25, 1.0)],
               [("timeout", 0.125), ("send", 0.125, 1.0)]]
    fused, unfused = fused_and_reference(program)
    assert fused == unfused
    assert fused["served"] == [0, 1]
    assert fused["queue_time"] == 1.0  # s1 waited out s0's whole service
    # ...and the other way round when s1's request is scheduled first.
    program = [[("timeout", 0.125), ("send", 0.125, 1.0)],
               [("timer", 0.0), ("send", 0.25, 1.0)]]
    fused, unfused = fused_and_reference(program)
    assert fused == unfused
    assert fused["served"] == [1, 0]


def test_arrival_at_a_busy_unit_queues_from_its_arrival_instant():
    program = [[("send", 0.0, 1.0)], [("send", 0.25, 0.5)]]
    fused, unfused = fused_and_reference(program)
    assert fused == unfused
    assert fused["served"] == [0, 1]
    assert fused["queue_time"] == 0.75  # arrived 0.25, granted 1.0
    assert fused["now"] == 1.5


def test_arrival_exactly_at_the_horizon_is_admitted_not_resumed():
    program = [[("timer", 0.1), ("send", 0.5, 0.25)]]
    fused, unfused = fused_and_reference(program, until=0.5)
    assert fused == unfused
    assert (fused["requests"], fused["in_use"], fused["served"]) == (1, 1, [])
    assert fused["live"] == ["s0"]
    # Past the horizon nothing arrives at all.
    fused, unfused = fused_and_reference(program, until=0.3)
    assert fused == unfused
    assert (fused["requests"], fused["in_use"]) == (0, 0)


def test_capacity_two_serves_two_arrivals_at_once():
    program = [[("send", 0.125, 1.0)], [("send", 0.125, 1.0)],
               [("send", 0.125, 1.0)]]
    fused, unfused = fused_and_reference(program, capacity=2)
    assert fused == unfused
    assert fused["served"] == [0, 1, 2]
    assert fused["queue_time"] == 1.0 and fused["now"] == 2.125


def test_arrival_that_ends_its_slice_sees_the_next_epoch():
    """The ``_next_time`` hand-over: the arrival callback is the last
    record at its instant, so its service may advance the clock inline
    (up to, not onto, the timer pending at 1.0) and step the sender from
    inside the callback."""
    program = [[("timer", 1.0), ("timer", 0.25), ("send", 0.25, 0.5)]]
    fused, unfused = fused_and_reference(program)
    assert fused == unfused
    # One inline advance (the service); the arrival itself was queued.
    assert fused["coalesced"] == 1
    tied = [[("timer", 0.75), ("timer", 0.25), ("send", 0.25, 0.5)]]
    fused, unfused = fused_and_reference(tied)
    assert fused == unfused
    assert fused["coalesced"] == 0  # an entry is due at 0.75: no advance


def test_schedule_at_is_absolute():
    # fl(0.3 + fl(0.9 - 0.3)) is not 0.9: a now-relative reschedule would
    # land the callback in another bucket.
    assert 0.3 + (0.9 - 0.3) != 0.9
    for eng in (Engine(), ReferenceEngine()):
        seen = []
        eng.schedule(0.3, lambda eng=eng: eng.schedule_at(
            0.9, lambda: seen.append(eng.now)))
        eng.schedule_at(0.9, seen.append, "first")
        eng.run()
        assert seen == ["first", 0.9]
        assert eng.scheduled_events == 3
        with pytest.raises(SimulationError):
            eng.schedule_at(0.5, seen.append, "past")
