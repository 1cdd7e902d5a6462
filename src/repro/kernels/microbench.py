"""The Figure 2 micro-benchmark.

Per thread: S rows of B doubles. An inner loop executes M times, doing two
floating-point operations per data element per iteration (scale by r and
accumulate); each outer iteration then updates a mutex-protected global sum
and waits at a barrier. Repeated N times.

Three allocation / access strategies (§III):

* ``LOCAL``          -- every thread allocates its own S x B block
                        (arena path; no inter-thread false sharing);
* ``GLOBAL``         -- thread 0 allocates one (P*S) x B block; thread t
                        works on contiguous rows [t*S, (t+1)*S);
* ``GLOBAL_STRIDED`` -- same single block, but thread t works on rows
                        t, t+P, t+2P, ... (round-robin; maximum false
                        sharing within pages and cache lines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.kernels.common import strided_rows
from repro.runtime.context import ThreadCtx
from repro.runtime.handles import Barrier, Lock
from repro.runtime.plan import AccessPlan
from repro.runtime.sharedarray import SharedArray


class Allocation(Enum):
    LOCAL = "local"
    GLOBAL = "global"
    GLOBAL_STRIDED = "global_strided"


@dataclass(frozen=True)
class MicrobenchParams:
    """Paper defaults: N=10 outer iterations, B=256 doubles per row."""

    N: int = 10
    M: int = 10
    S: int = 2
    B: int = 256
    allocation: Allocation = Allocation.LOCAL
    r: float = 0.999
    #: Byte offset of the global array inside its allocation, modelling the
    #: allocator header of a single big malloc: thread chunk boundaries then
    #: straddle pages, giving the global strategy its "false sharing within
    #: a page or within a cache line" risk (§III). Local allocation is
    #: unaffected -- the arena guarantees thread privacy.
    global_misalign: int = 64

    def __post_init__(self):
        if min(self.N, self.M, self.S, self.B) < 1:
            raise ValueError("all micro-benchmark dimensions must be >= 1")
        if self.global_misalign < 0:
            raise ValueError("global_misalign must be >= 0")


def microbench_thread(ctx: ThreadCtx, shared: dict, lock: Lock, bar: Barrier,
                      params: MicrobenchParams):
    """Generator: one compute thread of the Figure 2 kernel.

    Returns the final global sum it observes (all threads must agree).
    """
    P = ctx.nthreads
    S, B = params.S, params.B

    # ---- allocation phase ------------------------------------------------
    if ctx.tid == 0:
        # gsum models a program global: page-aligned shared allocation so it
        # never shares a page with any thread's arena data.
        shared["gsum"] = yield from ctx.malloc_shared(64)
        if ctx.functional:
            yield from ctx.write(shared["gsum"], 8,
                                 np.zeros(8, dtype=np.uint8))
    if params.allocation is Allocation.LOCAL:
        # "each thread allocates the memory that will hold its data"
        arr = yield from SharedArray.allocate(ctx, S, B)
        my_rows = list(range(S))
    else:
        if ctx.tid == 0:
            # One big allocation, offset by the modelled malloc header so
            # thread chunks straddle page boundaries.
            row_bytes = B * 8
            raw = yield from ctx.malloc(P * S * row_bytes
                                        + params.global_misalign + 4096)
            shared["arr"] = SharedArray(ctx, raw + params.global_misalign,
                                        P * S, B)
        yield from ctx.barrier(bar)
        arr = shared["arr"].view(ctx)
        if params.allocation is Allocation.GLOBAL:
            my_rows = list(range(ctx.tid * S, (ctx.tid + 1) * S))
        else:
            my_rows = strided_rows(S, P, ctx.tid)
    # Initialize my rows to 1.0 so the scaling recurrence is non-trivial.
    for row in my_rows:
        if ctx.functional:
            yield from arr.write_rows(row, np.ones(B, dtype=np.float64))
        else:
            yield from arr.write_rows(row, None, nrows=1)
    yield from ctx.barrier(bar)
    # Warm the shared global (first touch happens at program start, outside
    # the measured kernel), then start timing as the paper's benchmark does.
    yield from ctx.read(shared["gsum"], 8)
    yield from ctx.barrier(bar)
    ctx.reset_clock()

    # ---- compute phase (Figure 2) -----------------------------------------
    gsum_addr = shared["gsum"]
    # The whole M x S row sweep is one access plan: the same read /
    # scale-write / compute sequence per row as the per-access loop, with
    # each write a callable over the row's own read so the scaling
    # recurrence chains through the plan. Every outer iteration sweeps the
    # same rows, so the plan is built once and submitted N times.
    plan = AccessPlan()
    rsums: list[float] = []
    for _j in range(params.M):
        for row in my_rows:
            r = arr.read_rows_op(plan, row)

            if ctx.functional:
                def scale(results, _r=r):
                    scaled = params.r * arr.decode(results[_r], 1)[0]
                    rsums.append(float(scaled.sum()))
                    return scaled

                arr.write_rows_op(plan, row, scale, nrows=1)
            else:
                arr.write_rows_op(plan, row, None, nrows=1)
            # Two flops per element (multiply + accumulate).
            plan.compute(B, flops_per_element=2.0)
    for _i in range(params.N):
        rsums.clear()
        yield from ctx.submit(plan)
        local_sum = 0.0
        for rsum in rsums:
            local_sum += math.pi * rsum
        yield from ctx.lock(lock)
        cur = yield from ctx.read(gsum_addr, 8)
        if ctx.functional:
            total = float(cur.view(np.float64)[0]) + local_sum
            payload = np.frombuffer(np.float64(total).tobytes(), np.uint8)
            yield from ctx.write(gsum_addr, 8, payload)
        else:
            yield from ctx.write(gsum_addr, 8, None)
        yield from ctx.unlock(lock)
        yield from ctx.barrier(bar)

    final = yield from ctx.read(gsum_addr, 8)
    if ctx.functional:
        return float(final.view(np.float64)[0])
    return None


def spawn_microbench(rt, params: MicrobenchParams) -> dict:
    """Create the handles, spawn all threads; returns the shared dict."""
    shared: dict = {}
    lock = rt.create_lock()
    bar = rt.create_barrier()
    rt.spawn_all(microbench_thread, shared, lock, bar, params)
    return shared


def microbench_reference(params: MicrobenchParams, n_threads: int) -> float:
    """Sequential NumPy model of the kernel's arithmetic (for verification).

    Every row starts at 1.0 and is scaled by r once per (i, j) iteration;
    rsum for a row at its t-th scaling is B * r^t. All threads contribute
    identically, so the closed form is exact (up to float64 rounding).
    """
    total = 0.0
    scalings = 0
    for _i in range(params.N):
        for _j in range(params.M):
            scalings += 1
            rsum = params.B * params.r ** scalings
            total += math.pi * rsum * params.S
    return total * n_threads
