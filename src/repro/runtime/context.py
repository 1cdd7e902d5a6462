"""ThreadCtx: what an application kernel sees.

One kernel body (a generator function taking a :class:`ThreadCtx`) runs
unchanged on both backends; the context routes each operation to backend ops
and books elapsed virtual time into the paper's two buckets (compute time,
which includes fault stalls, and synchronization time).

All blocking operations return something to ``yield from`` -- that is how
kernels call them. Apart from the compat plan path they are plain functions
handing back the generator of the layer below (:meth:`ThreadCtx._timed`
around the backend's op), so resuming a blocked thread crosses one frame per
layer that does something; an operation that turns out not to block at all
(an owner-cache lock passage, a compute burst the clock absorbs inline)
hands back :data:`~repro.sim.engine.DONE` and builds no generator.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.clock import ThreadClock
from repro.runtime.handles import Barrier, Cond, Lock
from repro.runtime.plan import COMPUTE, READ, AccessPlan
from repro.sim.engine import DONE, Timeout


class ThreadCtx:
    """Per-thread programming interface (Pthreads-like, §II)."""

    def __init__(self, ops, tid: int, nthreads: int):
        self._ops = ops
        self.tid = tid
        self.nthreads = nthreads
        self.clock = ThreadClock()
        #: Bound once: ``_timed`` reads the engine's clock twice per op, and
        #: the tracer (None on a backend without one) once.
        self._engine = ops.engine
        self._tracer = getattr(ops, "tracer", None)

    @property
    def functional(self) -> bool:
        return self._ops.functional

    @property
    def now(self) -> float:
        return self._engine.now

    def reset_clock(self) -> None:
        """Zero the time buckets -- kernels call this after their setup /
        initialization phase so reported times cover only the measured
        region, as the paper's benchmarks do."""
        self.clock.compute = 0.0
        self.clock.sync = 0.0
        self.clock.detail.clear()

    # ------------------------------------------------------------------
    # time-bucketed op wrappers
    # ------------------------------------------------------------------
    def _timed(self, gen, bucket: str, detail: str):
        engine = self._engine
        t0 = engine.now
        value = yield from gen
        dt = engine.now - t0
        self.clock.charge(bucket, dt, detail)
        tracer = self._tracer
        if tracer is not None and tracer.enabled and dt > 0:
            tracer.emit(t0, f"t{self.tid}", detail, duration=dt)
        return value

    # -- memory ----------------------------------------------------------
    def malloc(self, size: int):
        """Generator: allocate ``size`` bytes of shared memory."""
        return self._timed(self._ops.malloc(self.tid, size),
                           "compute", "alloc")

    def malloc_shared(self, size: int):
        """Generator: allocate a page-aligned shared global (the analogue of
        a program global variable -- never placed in a thread arena)."""
        return self._timed(self._ops.malloc_shared(self.tid, size),
                           "compute", "alloc")

    def free(self, addr: int):
        """Generator: release an allocation."""
        return self._timed(self._ops.free(self.tid, addr),
                           "compute", "alloc")

    def read(self, addr: int, nbytes: int):
        """Generator: read bytes; returns uint8 array (functional mode) or
        None (timing mode). Fault stalls are charged to compute time."""
        return self._timed(self._ops.mem_read(self.tid, addr, nbytes),
                           "compute", "memory")

    def write(self, addr: int, nbytes: int, data: np.ndarray | None = None):
        """Generator: write bytes (data=None in timing mode)."""
        return self._timed(self._ops.mem_write(self.tid, addr, nbytes, data),
                           "compute", "memory")

    def compute(self, elements: int, flops_per_element: float = 2.0):
        """Burn CPU for ``elements`` inner-loop elements (plain function;
        ``yield from`` what it returns)."""
        dt = self._ops.compute_cost(self.tid, elements, flops_per_element)
        self.clock.charge("compute", dt, "cpu")
        tracer = self._tracer
        if tracer is not None and tracer.enabled and dt > 0:
            tracer.emit(self._engine.now, f"t{self.tid}", "cpu", duration=dt)
        # Back-to-back compute merges before scheduling: when the engine's
        # next event is strictly later, advance inline; else hand back the
        # one command, with no generator frame around it.
        if self._engine.try_advance(dt):
            return DONE
        return (Timeout(dt),)

    # -- batched access plans ---------------------------------------------
    def submit(self, plan: AccessPlan):
        """Generator: execute an :class:`AccessPlan`; returns the list of
        read results (in plan order). A plan is not consumed: it may be
        submitted again.

        Backends exposing a batched executor (``plans_supported`` +
        ``run_plan``) cost cache hits in bulk; elsewhere -- pthreads, IVY
        coherence, active tracing -- each operation takes the identical
        per-access path it always did. Either way the per-thread clock is
        charged operation by operation, in order, so the accounting is
        bit-for-bit the same as hand-written ``ctx.read``/``ctx.write``.
        """
        ops_backend = self._ops
        tracer = self._tracer
        if (not getattr(ops_backend, "plans_supported", False)
                or (tracer is not None and tracer.enabled)):
            return self._submit_compat(plan)
        return ops_backend.run_plan(self.tid, plan, self.clock)

    def _submit_compat(self, plan: AccessPlan):
        """Generator: the per-op reference semantics of a plan."""
        results = []
        payloads = plan.payload
        for i, kind in enumerate(plan.kind):
            if kind == COMPUTE:
                yield from self.compute(plan.elements[i], plan.flops[i])
            elif kind == READ:
                results.append(
                    (yield from self.read(plan.addr[i], plan.nbytes[i])))
            else:
                data = payloads[i]
                if callable(data):
                    data = data(results)
                yield from self.write(plan.addr[i], plan.nbytes[i], data)
        return results

    # -- synchronization ---------------------------------------------------
    def lock(self, lock: Lock):
        """Acquire (enters a RegC consistency region). One that did not
        block is handed straight back: no time elapsed, so nothing to book
        (``fl(t + 0.0) == t``) and nothing to trace."""
        op = self._ops.acquire_lock(self.tid, lock.id)
        return op if op is DONE else self._timed(op, "sync", "lock")

    def unlock(self, lock: Lock):
        """Release (leaves the consistency region, propagating its
        updates); like :meth:`lock`, untimed when it did not block."""
        op = self._ops.release_lock(self.tid, lock.id)
        return op if op is DONE else self._timed(op, "sync", "lock")

    def barrier(self, barrier: Barrier):
        """Generator: barrier wait (a RegC global consistency point)."""
        return self._timed(self._ops.barrier_wait(self.tid, barrier.id),
                           "sync", "barrier")

    def cond_wait(self, cond: Cond, lock: Lock):
        """Generator: POSIX-style condition wait (hold the lock)."""
        return self._timed(self._ops.cond_wait(self.tid, cond.id, lock.id),
                           "sync", "cond")

    def cond_signal(self, cond: Cond):
        """Generator: wake one waiter."""
        return self._timed(self._ops.cond_signal(self.tid, cond.id, False),
                           "sync", "cond")

    def cond_broadcast(self, cond: Cond):
        """Generator: wake all waiters."""
        return self._timed(self._ops.cond_signal(self.tid, cond.id, True),
                           "sync", "cond")
