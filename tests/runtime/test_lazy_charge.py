"""A timed operation is charged when the thread next does anything.

``ThreadCtx`` books an operation at the start of the thread's next
operation, at a read of ``ctx.clock``, or when the kernel returns -- not
in a frame wrapped around the operation. These tests hold that to the
figure such a wrapper measured: the ``now`` delta around each operation,
chained in operation order, bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SamhitaConfig
from repro.errors import AllocationError
from repro.runtime import Runtime
from repro.runtime.clock import ThreadClock
from repro.runtime.plan import AccessPlan
from repro.sim.engine import DONE

BUFFER = 128 << 10  # a shared-zone allocation: a manager round trip


def bits(clock: ThreadClock):
    """A clock's totals as exact bit patterns."""
    return (clock.compute.hex(), clock.sync.hex(),
            sorted((k, v.hex()) for k, v in clock.detail.items()))


def make_runtime(flavour: str, n_threads: int, trace: bool = False):
    if flavour == "pthreads":
        return Runtime("pthreads", n_threads=n_threads, functional=False,
                       trace=trace)
    return Runtime("samhita", n_threads=n_threads, trace=trace,
                   config=SamhitaConfig(
                       functional=False,
                       lock_owner_cache=flavour == "samhita-owner-cache"))


def measured(ctx, shadow, bucket, detail, op):
    """Generator: run ``op`` as a kernel does and book, in ``shadow``, the
    ``now`` delta around it -- what a timing wrapper would charge."""
    t0 = ctx.now
    value = yield from op
    shadow.charge(bucket, ctx.now - t0, detail)
    return value


def op_kernel(ctx, program, lock, bar, element_time):
    """Replay ``program`` and return the clock it should have produced."""
    shadow = ThreadClock()
    addr = yield from measured(ctx, shadow, "compute", "alloc",
                               ctx.malloc(BUFFER))
    for name, arg in program:
        where = addr + arg % (BUFFER - 64)
        if name == "read":
            yield from measured(ctx, shadow, "compute", "memory",
                                ctx.read(where, 64))
        elif name == "write":
            yield from measured(ctx, shadow, "compute", "memory",
                                ctx.write(where, 64))
        elif name == "compute":
            # Charged its burst, known before it runs.
            shadow.charge("compute", element_time(arg, 2.0), "cpu")
            yield from ctx.compute(arg)
        elif name == "submit":
            plan = AccessPlan()
            if arg % 2:
                plan.read(where, 64)
            else:
                plan.write(where, 64)
            yield from measured(ctx, shadow, "compute", "memory",
                                ctx.submit(plan))
        elif name in ("lock", "unlock"):
            op = ctx.lock(lock) if name == "lock" else ctx.unlock(lock)
            if op is DONE:  # took no time: not charged
                yield from op
            else:
                yield from measured(ctx, shadow, "sync", "lock", op)
        elif name == "barrier":
            yield from measured(ctx, shadow, "sync", "barrier",
                                ctx.barrier(bar))
        elif name == "clock":
            assert bits(ctx.clock) == bits(shadow)
        else:  # "reset", usually with an operation still open
            ctx.reset_clock()
            shadow = ThreadClock()
    return shadow


_step = st.one_of(
    st.tuples(st.sampled_from(["read", "write", "submit"]),
              st.integers(0, BUFFER)),
    st.tuples(st.just("compute"), st.integers(1, 4000)),
    st.tuples(st.sampled_from(["barrier", "clock", "reset"]), st.just(0)),
    st.tuples(st.just("locked"), st.integers(0, BUFFER)),
)


def _expand(steps):
    """A locked step is lock, write, unlock: every lock is released."""
    program = []
    for name, arg in steps:
        if name == "locked":
            program += [("lock", 0), ("write", arg), ("unlock", 0)]
        else:
            program.append((name, arg))
    return program


@settings(max_examples=40, deadline=None)
@given(flavour=st.sampled_from(["pthreads", "samhita",
                                "samhita-owner-cache", "samhita-traced"]),
       steps=st.lists(_step, max_size=10))
def test_charges_equal_the_chained_deltas_around_each_op(flavour, steps):
    rt = make_runtime(flavour, 2, trace=flavour == "samhita-traced")
    lock, bar = rt.create_lock(), rt.create_barrier()
    program = _expand(steps)

    def body(ctx):
        element_time = rt.backend.cost_model_of(ctx.tid).element_time
        return (yield from op_kernel(ctx, program, lock, bar, element_time))

    rt.spawn_all(body)
    result = rt.run()
    for thread in result.threads.values():
        assert bits(thread.clock) == bits(thread.value)


@pytest.mark.parametrize("flavour", ["pthreads", "samhita"])
def test_a_thread_that_finishes_early_is_charged_to_its_own_finish(flavour):
    """Its last operation is open when it returns; it is charged there, not
    when the run ends."""
    rt = make_runtime(flavour, 2)

    def body(ctx):
        if ctx.tid == 1:
            yield from ctx.compute(2_000_000)
            return None
        shadow = ThreadClock()
        addr = yield from measured(ctx, shadow, "compute", "alloc",
                                   ctx.malloc(BUFFER))
        yield from measured(ctx, shadow, "compute", "memory",
                            ctx.write(addr, 64))  # still open at return
        return shadow, ctx.now

    rt.spawn_all(body)
    result = rt.run()
    shadow, finished = result.threads[0].value
    assert bits(result.threads[0].clock) == bits(shadow)
    assert shadow.detail["memory"] > 0
    assert finished < result.elapsed


@pytest.mark.parametrize("flavour", ["pthreads", "samhita"])
def test_results_are_recorded_in_finish_order(flavour):
    rt = make_runtime(flavour, 4)

    def body(ctx):
        yield from ctx.compute(1000 * (4 - ctx.tid))
        return ctx.now

    rt.spawn_all(body)
    result = rt.run()
    assert list(result.threads) == [3, 2, 1, 0]
    finishes = [thread.value for thread in result.threads.values()]
    assert finishes == sorted(finishes)


@pytest.mark.parametrize("flavour", ["pthreads", "samhita"])
def test_an_op_that_raises_is_charged_to_the_next_call(flavour):
    """The ``test_double_free_raises`` shape. The failed free's time is
    charged once the kernel that caught its exception calls again (a
    wrapper that charged at the return charged a raising op nothing)."""
    rt = make_runtime(flavour, 1)

    def body(ctx):
        shadow = ThreadClock()
        addr = yield from measured(ctx, shadow, "compute", "alloc",
                                   ctx.malloc(256 << 10))
        yield from measured(ctx, shadow, "compute", "alloc", ctx.free(addr))
        t0 = ctx.now
        with pytest.raises(AllocationError):
            yield from ctx.free(addr)
        failed = ctx.now - t0
        shadow.charge("compute", failed, "alloc")
        shadow.charge("compute", rt.backend.cost_model_of(0).element_time(
            10, 2.0), "cpu")
        yield from ctx.compute(10)  # the failed free is charged here
        return shadow, failed

    rt.spawn(body)
    result = rt.run()
    shadow, failed = result.threads[0].value
    assert bits(result.threads[0].clock) == bits(shadow)
    # Samhita's free is a manager round trip that fails at its end.
    assert (failed > 0) == (flavour == "samhita")


@pytest.mark.parametrize("flavour", ["pthreads", "samhita"])
def test_traced_events_follow_op_order_to_the_finish(flavour):
    """Each interval is emitted where its operation is charged: per
    thread, one per operation that took time, in operation order, the
    last ending at the thread's finish."""
    rt = make_runtime(flavour, 2, trace=True)
    bar = rt.create_barrier()

    def body(ctx):
        seen = []  # (category, start, end) per operation

        def timed(category, op):
            t0 = ctx.now
            yield from op
            seen.append((category, t0, ctx.now))

        addr = yield from ctx.malloc(BUFFER)
        seen.append(("alloc", 0.0, ctx.now))
        yield from timed("memory", ctx.write(addr, 64))
        t0 = ctx.now  # (a compute burst may advance inline, in the call)
        yield from ctx.compute(100)
        seen.append(("cpu", t0, ctx.now))
        yield from timed("barrier", ctx.barrier(bar))
        yield from timed("memory", ctx.read(addr + 8192 * (1 + ctx.tid), 64))
        yield from timed("barrier", ctx.barrier(bar))
        return seen

    rt.spawn_all(body)
    result = rt.run()
    for tid, thread in result.threads.items():
        events = [r for r in rt.backend.tracer.records
                  if r.component == f"t{tid}"]
        expected = [op for op in thread.value if op[2] > op[1]]
        assert [r.category for r in events] == [op[0] for op in expected]
        assert [r.time for r in events] == [op[1] for op in expected]
        last = events[-1]
        assert last.category == "barrier"
        assert last.time + last.payload["duration"] == pytest.approx(
            thread.value[-1][2], rel=1e-12, abs=0.0)
