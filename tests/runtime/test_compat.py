"""Tests for the Pthreads compatibility layer: a literally-ported Pthreads
program runs unchanged on both backends."""

import pytest

from repro.runtime import Runtime
from repro.runtime import compat as pt


def ported_worker(ctx, shared, mutex, barrier):
    """A C-to-Python port of the paper's benchmark skeleton, written in the
    Pthreads vocabulary."""
    if pt.pthread_self(ctx) == 0:
        shared["gsum"] = yield from pt.malloc(ctx, 64)
        yield from pt.memset(ctx, shared["gsum"], 0, 8)
    rc = yield from pt.pthread_barrier_wait(ctx, barrier)
    assert rc in (0, pt.PTHREAD_BARRIER_SERIAL_THREAD)

    local_sum = float(pt.pthread_self(ctx) + 1)
    yield from pt.pthread_mutex_lock(ctx, mutex)
    gsum = yield from pt.load_double(ctx, shared["gsum"])
    yield from pt.store_double(ctx, shared["gsum"], gsum + local_sum)
    yield from pt.pthread_mutex_unlock(ctx, mutex)
    yield from pt.pthread_barrier_wait(ctx, barrier)

    return (yield from pt.load_double(ctx, shared["gsum"]))


class TestPortedProgram:
    @pytest.mark.parametrize("backend", ["pthreads", "samhita"])
    def test_same_source_both_backends(self, backend):
        rt = Runtime(backend, n_threads=4)
        mutex, barrier = rt.create_lock(), rt.create_barrier()
        shared = {}
        rt.spawn_all(ported_worker, shared, mutex, barrier)
        result = rt.run()
        for t in result.threads:
            assert result.value_of(t) == pytest.approx(1 + 2 + 3 + 4)

    def test_barrier_serial_thread_is_unique(self):
        rt = Runtime("samhita", n_threads=4)
        barrier = rt.create_barrier()

        def body(ctx):
            rc = yield from pt.pthread_barrier_wait(ctx, barrier)
            return rc

        rt.spawn_all(body)
        result = rt.run()
        serials = [t for t in result.threads
                   if result.value_of(t) == pt.PTHREAD_BARRIER_SERIAL_THREAD]
        assert len(serials) == 1


class TestMemoryHelpers:
    def test_memset_and_memcpy(self):
        rt = Runtime("samhita", n_threads=1)

        def body(ctx):
            a = yield from pt.malloc(ctx, 256)
            b = yield from pt.malloc(ctx, 256)
            yield from pt.memset(ctx, a, 7, 256)
            yield from pt.memcpy(ctx, b, a, 256)
            data = yield from ctx.read(b, 256)
            return int(data.sum())

        rt.spawn(body)
        assert rt.run().value_of(0) == 7 * 256

    def test_int64_roundtrip(self):
        rt = Runtime("pthreads", n_threads=1)

        def body(ctx):
            a = yield from pt.malloc(ctx, 64)
            yield from pt.store_int64(ctx, a, -123456789)
            return (yield from pt.load_int64(ctx, a))

        rt.spawn(body)
        assert rt.run().value_of(0) == -123456789

    def test_free_via_compat(self):
        rt = Runtime("samhita", n_threads=1)

        def body(ctx):
            a = yield from pt.malloc(ctx, 200 << 10)
            yield from pt.free(ctx, a)
            return True

        rt.spawn(body)
        assert rt.run().value_of(0)


ITEMS = 6


def handoff_worker(ctx, shared, mutex, not_empty, not_full, barrier):
    """A one-slot bounded buffer in the Pthreads vocabulary: thread 0
    produces 1..ITEMS, every other thread consumes until the producer's
    closing broadcast. Slot layout: value, full flag, done flag."""
    if pt.pthread_self(ctx) == 0:
        shared["slot"] = yield from pt.malloc(ctx, 64)
        yield from pt.memset(ctx, shared["slot"], 0, 24)
    yield from pt.pthread_barrier_wait(ctx, barrier)
    slot = shared["slot"]
    value, full, done = slot, slot + 8, slot + 16

    if pt.pthread_self(ctx) == 0:
        for item in range(1, ITEMS + 1):
            yield from pt.pthread_mutex_lock(ctx, mutex)
            while (yield from pt.load_int64(ctx, full)):
                yield from pt.pthread_cond_wait(ctx, not_full, mutex)
            yield from pt.store_int64(ctx, value, item)
            yield from pt.store_int64(ctx, full, 1)
            yield from pt.pthread_cond_signal(ctx, not_empty)
            yield from pt.pthread_mutex_unlock(ctx, mutex)
        yield from pt.pthread_mutex_lock(ctx, mutex)
        while (yield from pt.load_int64(ctx, full)):
            yield from pt.pthread_cond_wait(ctx, not_full, mutex)
        yield from pt.store_int64(ctx, done, 1)
        yield from pt.pthread_cond_broadcast(ctx, not_empty)
        yield from pt.pthread_mutex_unlock(ctx, mutex)
        return []

    taken = []
    while True:
        yield from pt.pthread_mutex_lock(ctx, mutex)
        while not (yield from pt.load_int64(ctx, full)):
            if (yield from pt.load_int64(ctx, done)):
                yield from pt.pthread_mutex_unlock(ctx, mutex)
                return taken
            yield from pt.pthread_cond_wait(ctx, not_empty, mutex)
        taken.append((yield from pt.load_int64(ctx, value)))
        yield from pt.store_int64(ctx, full, 0)
        yield from pt.pthread_cond_signal(ctx, not_full)
        yield from pt.pthread_mutex_unlock(ctx, mutex)


class TestConditionVariables:
    @pytest.mark.parametrize("backend", ["pthreads", "samhita"])
    def test_producer_consumer_handoff(self, backend):
        rt = Runtime(backend, n_threads=3)
        mutex, barrier = rt.create_lock(), rt.create_barrier()
        not_empty, not_full = rt.create_cond(), rt.create_cond()
        shared = {}
        rt.spawn_all(handoff_worker, shared, mutex, not_empty, not_full,
                     barrier)
        result = rt.run()
        taken = [item for t in result.threads for item in result.value_of(t)]
        # Every item is handed off exactly once, and the broadcast releases
        # every consumer still waiting when the producer closes.
        assert sorted(taken) == list(range(1, ITEMS + 1))
