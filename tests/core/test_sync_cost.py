"""Deterministic cost gates for the sync path (ROADMAP aim 1: call counts
gate CI where wall clock is too noisy to).

A synchronization operation should cost host work in proportion to the
messages it models, not to the layers it crosses: a lock passage the owner
cache absorbs sends nothing and so builds nothing; a barrier arrival's
request legs are engine callbacks, so the thread is resumed when it has been
served, not once per hop; and none of it grows with the machine.
"""

import collections
import gc
import sys

import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.core.system import NO_STORES
from repro.experiments.__main__ import sync_cost, sync_sweep_system
from repro.runtime import Runtime
from repro.sim.engine import Engine, Timeout
from tests.memory.test_diff_cost import tally_call, where_calls_go

#: Calls (builtins included) of ``ctx.lock`` + ``ctx.unlock`` on a lock
#: this thread owns through the cache, no stores in between, with the
#: thread's previous operation already charged: 14 today (16 when the
#: backend forwarded each op to the system, 40 when each was a generator
#: wrapped in a timing frame); the bound is that + 10 %.
PASSAGE_BOUND = 15
#: Calls per steady-state thread-round of the sweep-cell body (private
#: lock, 1 us, unlock, full tree barrier): 99.4 / 102.7 / 101.8 today at 16
#: servers / 1 shard, 256 / 16 and 1,024 / 64 (106 / 109 / 108 before a
#: sync-op message leg and a routed op lost their forwarding frames); the
#: bound is the highest + 10 %.
ROUND_BOUND = 113
#: ``Engine._step`` entries per steady-state thread-round: 4.00 / 4.13 /
#: 4.13 today (the 1 us hold, the stash flush's reply, the node gate or the
#: arrival's reply, the flush gate behind the node's others; the rest are
#: cell leaders' legs); the bound is the highest + 10 %.
STEP_BOUND = 4.55

_STEP = Engine._step.__code__


class Counter:
    """``sys.setprofile`` hook: every call (in all and per function, see
    ``tally_call``), ``Engine._step`` entries (in all and per process), and
    generator frames (first entries and resumptions alike)."""

    def __init__(self):
        self.calls = self.steps = self.generator_frames = 0
        self.tally = collections.Counter()
        self.steps_of = collections.Counter()
        #: process -> the clock when it was last stepped.
        self.stepped_at = {}

    def __call__(self, frame, event, arg):
        tally_call(self.tally, frame, event, arg)
        if event == "call":
            self.calls += 1
            code = frame.f_code
            if code is _STEP:
                self.steps += 1
                local = frame.f_locals
                self.steps_of[local["proc"]] += 1
                self.stepped_at[local["proc"]] = local["self"].now
            self.generator_frames += bool(code.co_flags & 0x20)  # CO_GENERATOR
        elif event == "c_call":
            self.calls += 1

    def __enter__(self):
        # No collection while counting: once any hypothesis test has run, a
        # Python-level gc callback is installed and would be counted here.
        gc.disable()
        sys.setprofile(self)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        gc.enable()


def test_owner_cache_passage_builds_no_generator():
    rt = Runtime("samhita", n_threads=1,
                 config=SamhitaConfig(lock_owner_cache=True, functional=False))
    lock = rt.create_lock()
    seen = {}

    def body(ctx):
        # The first passage is the manager's: grant, release, grant cached.
        yield from ctx.lock(lock)
        yield from ctx.unlock(lock)
        ctx.clock  # charges that release, as the next operation would
        with Counter() as counter:
            acquired = ctx.lock(lock)
            released = ctx.unlock(lock)
        seen.update(counter=counter, ops=(acquired, released))
        yield from acquired
        yield from released

    rt.spawn(body)
    result = rt.run()
    counter = seen["counter"]
    assert seen["ops"] == ((), ())  # DONE, twice
    assert counter.generator_frames == 0
    assert counter.calls <= PASSAGE_BOUND, where_calls_go(counter.tally)
    assert result.stats["lock_cache"]["lock_cache_hits"] == 1
    assert result.stats["lock_cache"]["lock_cache_local_releases"] == 1


def sweep_cell_cost(n_compute: int, shards: int, rounds: int) -> Counter:
    """The tree-barrier sweep cell, run under the counter."""
    system = sync_sweep_system(n_compute, shards, True, True, rounds)
    with Counter() as counter:
        system.run()
    assert sum(m.stats.get("barrier_rounds")
               for m in system.managers) == rounds
    return counter


def steady_round_cost(n_compute: int,
                      shards: int) -> tuple[float, float, str]:
    """(calls, ``Engine._step`` entries) per steady-state thread-round,
    and where the calls go (``where_calls_go``)."""
    # Rounds 1-2 install the cached grants and price the routes; the
    # difference of two longer runs is steady state only.
    short, long = (sweep_cell_cost(n_compute, shards, rounds)
                   for rounds in (3, 6))
    thread_rounds = n_compute * 3
    return ((long.calls - short.calls) / thread_rounds,
            (long.steps - short.steps) / thread_rounds,
            where_calls_go(long.tally - short.tally))


@pytest.mark.parametrize("n_compute, shards",
                         [(16, 1), (256, 16), (1024, 64)])
def test_thread_round_cost_is_bounded_and_flat(n_compute, shards):
    calls, steps, where = steady_round_cost(n_compute, shards)
    assert calls <= ROUND_BOUND, where
    assert steps <= STEP_BOUND
    # Flat from the smallest machine whose tree has a cell level (110
    # calls): work per arrival that grows with the party is invisible at
    # 64 threads and a fifth of the round at 1,024.
    assert calls <= 1.15 * steady_round_cost(64, 4)[0], where


#: Generator frames and calls per steady-state thread-round of the
#: ``sync_storm`` kernel (lock, compute, unlock, barrier through
#: ``ThreadCtx``), and its ``Engine._step`` entries. Frames: 12.5 / 13.5
#: today at 16 threads / 1 shard and 256 / 16 (20.5 / 21.8 while every
#: resumption re-entered a run frame and a timing frame around the
#: kernel's operation); calls 108.3 / 111.7 (125.5 / 129.6).
KERNEL_FRAME_BOUND = 15
KERNEL_CALL_BOUND = 125


def lock_barrier_kernel(ctx, locks, bar, rounds):
    """The ``sync_storm`` kernel: a private lock and a global barrier."""
    own = locks[ctx.tid]
    for _ in range(rounds):
        yield from ctx.lock(own)
        yield from ctx.compute(1)
        yield from ctx.unlock(own)
        yield from ctx.barrier(bar)


def kernel_cost(n_threads: int, shards: int, rounds: int) -> Counter:
    rt = Runtime("samhita", n_threads=n_threads,
                 config=SamhitaConfig.sharded_control_plane(shards))
    locks = [rt.create_lock() for _ in range(n_threads)]
    rt.spawn_all(lock_barrier_kernel, locks, rt.create_barrier(), rounds)
    try:
        with Counter() as counter:
            rt.run()
    finally:
        rt.backend.dispose()
    return counter


@pytest.mark.parametrize("n_threads, shards, steps",
                         [(16, 1, 4.0), (256, 16, 4.13)])
def test_kernel_round_cost_is_bounded(n_threads, shards, steps):
    """A thread resumption re-enters only frames that do work: the
    kernel's own generator is the process, its operations are timed
    without a wrapping frame, and the op table is the system's methods."""
    short, long = (kernel_cost(n_threads, shards, rounds)
                   for rounds in (3, 6))
    thread_rounds = n_threads * 3
    frames = (long.generator_frames - short.generator_frames) / thread_rounds
    calls = (long.calls - short.calls) / thread_rounds
    assert frames <= KERNEL_FRAME_BOUND
    assert calls <= KERNEL_CALL_BOUND, where_calls_go(long.tally - short.tally)
    assert round((long.steps - short.steps) / thread_rounds, 2) == steps


def test_contended_rpc_resumes_its_caller_once():
    """Four requests leave at one instant for one manager: each caller is
    parked once and stepped once -- at its service completion, behind the
    queue -- where it used to wake for the arrival as well."""
    system = SamhitaSystem.cluster(n_threads=4)
    tids = [system.add_thread() for _ in range(4)]
    manager = system.manager
    served = []

    def warm():
        # Prices the route and the size: only a priced message can fly.
        yield from manager._rpc(system.component_of(tids[0]))

    system.process(warm())
    system.run()

    def caller(tid):
        yield from manager._rpc(system.component_of(tid))
        served.append((tid, system.engine.now))

    procs = [system.process(caller(tid), name=f"c{tid}") for tid in tids]
    steps = dict.fromkeys(procs, 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code is _STEP:
            steps[frame.f_locals["proc"]] += 1

    sys.setprofile(count)
    try:
        system.run()
    finally:
        sys.setprofile(None)
    # One step to start each process, one to finish it.
    assert set(steps.values()) == {2}
    assert [tid for tid, _ in served] == tids
    times = [t for _, t in served]
    assert times == sorted(times) and len(set(times)) == 4
    assert manager.resource.total_requests == 5
    assert manager.resource.total_queue_time > 0


def resumes_per_op(system, tids, warm, op, then=lambda tid: ()):
    """One process per thread under the counter: ``warm(tid)``, then
    ``op(tid)``, then ``then(tid)``. Returns ``({tid: steps}, {tid:
    landed})``: how often each process was stepped between starting ``op``
    and finishing it, and whether the step it finished in began at that
    very instant (it was stepped when its answer landed, not woken earlier
    to carry the clock there itself)."""
    counter = Counter()
    resumes, landed = {}, {}

    def measured(tid):
        yield from warm(tid)
        me = system.engine.active
        start = counter.steps_of[me]
        yield from op(tid)
        resumes[tid] = counter.steps_of[me] - start
        landed[tid] = counter.stepped_at.get(me) == system.engine.now
        yield from then(tid)

    for tid in tids:
        system.process(measured(tid), name=f"t{tid}")
    with counter:
        system.run()
    return resumes, landed


def test_contended_acquire_resumes_its_caller_once():
    """Four acquires reach one lock at one instant: each caller, queued or
    not, sleeps from its request to its grant's arrival -- one step. The
    grant is taken and answered by continuations at the service completion
    and at the holder's release."""
    system = SamhitaSystem.cluster(n_threads=4)
    tids = [system.add_thread() for _ in range(4)]
    lock = system.create_lock()
    manager = system.manager
    comp = system.component_of(tids[0])
    granted = []

    def acquire(tid):
        yield from manager.acquire_lock(tid, comp, lock)
        granted.append(tid)

    def release(tid):
        yield Timeout(1e-6)
        yield from manager.release_lock(tid, comp, lock, [], 0, 0)

    # One passage first prices the request, grant and release sizes: only
    # a priced message can fly.
    resumes_per_op(system, tids[:1], lambda tid: (), acquire, release)
    granted.clear()
    resumes, landed = resumes_per_op(system, tids, lambda tid: (), acquire,
                                     release)
    assert resumes == dict.fromkeys(tids, 1)
    assert landed == dict.fromkeys(tids, True)
    assert granted == tids
    assert manager.stats.get("lock_acquires") == 5


#: Calls per contended lock passage that stores 8 bytes in its consistency
#: region (16 threads on one lock, timing mode, straight on
#: ``SamhitaSystem``): 132.9 today, 157.9 while a release re-derived its
#: sizes at every layer (the store log's generator sums, the lock log's,
#: the write-back's line set, a span column per diff); the bound is that +
#: 10 %.
STORE_PASSAGE_BOUND = 146


def store_passage_cost(passages: int) -> Counter:
    """16 threads, each taking one lock ``passages`` times and storing one
    8-byte word inside it, run under the counter."""
    system = SamhitaSystem.cluster(
        n_threads=16, config=SamhitaConfig(functional=False))
    tids = [system.add_thread() for _ in range(16)]
    lock = system.create_lock()
    word = []

    def alloc():
        word.append((yield from system.malloc(tids[0], 8, shared=True)))

    system.process(alloc())
    system.run()

    def body(tid):
        for _ in range(passages):
            yield from system.acquire_lock(tid, lock)
            yield from system.mem_write(tid, word[0], 8, None)
            yield from system.release_lock(tid, lock)

    for tid in tids:
        system.process(body(tid), name=f"t{tid}")
    with Counter() as counter:
        system.run()
    assert system.manager.stats.get("lock_releases") == 16 * passages
    return counter


def test_contended_store_passage_pays_for_its_messages():
    """A passage that stores one word ships one one-span diff to one home:
    its totals travel with it from the store log to the lock log, so no
    layer walks the release again to size it."""
    short, long = (store_passage_cost(passages) for passages in (4, 8))
    assert (long.calls - short.calls) / (16 * 4) <= STORE_PASSAGE_BOUND, (
        where_calls_go(long.tally - short.tally))


def test_flat_barrier_arrival_resumes_its_caller_once():
    """A flat arrival sleeps from its request to its directive's arrival:
    the party is released by continuations, which take the manager's
    service slot and send the reply."""
    system = SamhitaSystem.cluster(n_threads=4)
    tids = [system.add_thread() for _ in range(4)]
    bar = system.create_barrier(4)

    def arrive(tid):
        return system.barrier_wait(tid, bar)

    # The first round prices the notice and directive sizes.
    resumes, landed = resumes_per_op(system, tids, arrive, arrive)
    assert resumes == dict.fromkeys(tids, 1)
    assert landed == dict.fromkeys(tids, True)
    assert system.manager.stats.get("barrier_rounds") == 2


def test_tree_barrier_steps_per_role():
    """One steady tree round at 32 threads on 2 shards: 4 nodes, 2 cells of
    two. Every thread also steps once at the flush gate, queued behind the
    others its node released into the same instant. Beyond that, a thread
    that is not its node's leader wakes at its node's gate, and a node
    leader whose cell leader answers it wakes when that answer lands. A
    cell leader is stepped when served (it goes on to the root), when the
    root's answer lands and when its own cell reply does; the one that is
    the root's last arrival also waits through the cross-shard log
    gather."""
    system = SamhitaSystem.cluster(32, config=SamhitaConfig(
        manager_shards=2, tree_barriers=True))
    tids = [system.add_thread() for _ in range(32)]
    bar = system.create_barrier(32)

    def arrive(tid):
        return system.barrier_wait(tid, bar)

    resumes, _ = resumes_per_op(system, tids, arrive, arrive)
    assert collections.Counter(resumes.values()) == {2: 30, 4: 1, 5: 1}


def test_store_free_releases_share_one_record_that_nobody_writes():
    """Every store-free local release stashes the same ``NO_STORES``
    object: tuples all the way down, and its consumers -- the barrier-entry
    flush and a contender's revoke, both ending in ``_absorb_stash`` --
    only read it (an empty record adds no epoch to the lock's log)."""
    assert NO_STORES == ((), 0, 0, ())
    assert all(type(field) in (tuple, int) for field in NO_STORES)
    system = SamhitaSystem.cluster(
        n_threads=2, config=SamhitaConfig(lock_owner_cache=True))
    t0, t1 = system.add_thread(), system.add_thread()
    lock = system.create_lock()
    bar = system.create_barrier(2)
    cs = system.compute_server_of(t0)
    stashed = []

    def owner():
        for _ in range(3):  # manager passage, then two cached ones
            yield from system.acquire_lock(t0, lock)
            yield from system.release_lock(t0, lock)
        stashed.extend(cs.lock_cache[lock].stash)
        yield from system.barrier_wait(t0, bar)  # flushes the stash
        yield from system.acquire_lock(t0, lock)
        yield from system.release_lock(t0, lock)
        stashed.extend(cs.lock_cache[lock].stash)

    def contender():
        yield from system.barrier_wait(t1, bar)
        yield Timeout(1e-3)
        yield from system.acquire_lock(t1, lock)  # revokes: stash surrendered
        yield from system.release_lock(t1, lock)

    for body in (owner(), contender()):
        system.process(body)
    system.run()
    assert len(stashed) == 3 and all(rec is NO_STORES for rec in stashed)
    assert system.manager.stats.get("lock_cache_flushes") == 1
    assert system.manager.stats.get("lock_cache_revokes") == 1
    assert system.manager._locks[lock].log.version == 0  # nothing logged
    assert NO_STORES == ((), 0, 0, ())


def test_the_models_own_sync_cost_did_not_move():
    """Golab's measure and the barrier fan-in, from counters every run
    keeps (``python -m repro.experiments report`` prints them): what a
    passage and a round cost *in the model*. Host cost may fall; these may
    not move. The cache saves the grant round trip of five passages in six,
    but every barrier still flushes the stash: two messages a passage.
    On one shard the tree has no cell level (its combiner would be the
    root): one request per compute node, two at 16 threads."""
    assert sync_cost(16, 1, False, False) == (3.0, 16.0)
    assert sync_cost(16, 1, True, True) == (13 / 6, 2.0)
    assert sync_cost(64, 4, False, False) == (3.0, 64.0)
    assert sync_cost(64, 4, True, True) == (13 / 6, 12.0)


@pytest.mark.parametrize("n_compute, shards, mean",
                         [(16, 1, 70), (64, 4, 73), (256, 16, 73),
                          (1024, 64, 73)])
def test_manager_load_per_shard_is_flat(n_compute, shards, mean):
    """Shards scale with the machine (16 compute servers each), so what a
    shard absorbs does not: three rounds cost it 64 lock requests wherever
    it sits, and 70-73 requests in all on average (the barrier's root takes
    one more per cell and round)."""
    system = sync_sweep_system(n_compute, shards, True, True, 3)
    system.run()
    rows = system.stats_report()["manager_rpcs_by_shard"]
    assert sum(row["requests"] for row in rows) == mean * shards
    assert {row["lock"] for row in rows} == {64}
