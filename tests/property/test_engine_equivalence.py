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

from tests.sim.reference_engine import ReferenceEngine

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


def test_clear_pending_empties_both_columns():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.clear_pending()
    assert not eng._times and not eng._buckets
    assert eng.run() == 0.0
