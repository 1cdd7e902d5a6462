"""ThreadCtx: what an application kernel sees.

One kernel body (a generator function taking a :class:`ThreadCtx`) runs
unchanged on both backends; the context routes each operation to the
backend's op table and books elapsed virtual time into the paper's two
buckets (compute time, which includes fault stalls, and synchronization
time). Every blocking operation returns something to ``yield from``: what
the op table returned (on Samhita, the ``SamhitaSystem`` method's own
generator), or :data:`~repro.sim.engine.DONE` when it did not block. The
kernel's generator is the engine process itself and nothing wraps an
operation to time it (:class:`ThreadCtx`), so resuming a blocked thread
re-enters only frames that do work.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.clock import ThreadClock
from repro.runtime.handles import Barrier, Cond, Lock
from repro.runtime.plan import COMPUTE, READ, AccessPlan
from repro.runtime.results import ThreadResult
from repro.sim.engine import DONE, Timeout


class ThreadCtx:
    """Per-thread programming interface (Pthreads-like, §II).

    A timed operation is charged when the thread next does anything: its
    call records ``(start, bucket, detail)``, and ``now - start`` is
    charged at the start of the thread's next operation (``compute``,
    ``submit`` and ``reset_clock`` included), at any read of :attr:`clock`,
    or when the kernel returns (the engine's exit hook, at the thread's own
    finish instant). That is exactly what a wrapper around the operation
    would measure: a kernel suspends only through these operations (never
    by yielding an engine command itself), each ``yield from``-ed before
    the next one starts, so when the next call comes the clock still reads
    the instant the operation returned. The start is read when the
    operation is called, the instant its generator first runs (the
    plain-function prologues of :meth:`lock` and :meth:`unlock` never move
    the clock). An operation that hands back ``DONE`` took no time and is
    not charged. The tracer's interval is emitted at the settle point, in
    the thread step that ended the operation.

    On error paths only, this differs from charging at the return: an
    operation that raises is charged up to the point where the kernel that
    caught the exception makes its next call (or returns).
    """

    def __init__(self, backend, tid: int, nthreads: int):
        self.tid = tid
        self.nthreads = nthreads
        self.functional = backend.functional
        self._clock = ThreadClock()
        #: The timed operation not yet charged: ``(start, bucket, detail)``.
        self._open = None
        self._engine = backend.engine
        self._results = backend._results
        #: Whether to trace is decided when the thread is spawned.
        self._tracer = backend.tracer if backend.tracer.enabled else None
        #: The op table (``repro.runtime.backend`` documents it), bound once.
        self._ops = backend.ops
        self._element_time = backend.cost_model_of(tid).element_time
        #: Plans run batched only untraced (a traced access is an interval).
        self._run_plan = (backend.run_plan if backend.plans_supported
                          and self._tracer is None else None)

    @property
    def clock(self) -> ThreadClock:
        """This thread's clock, with every finished operation charged."""
        if self._open is not None:
            self._settle()
        return self._clock

    @property
    def now(self) -> float:
        return self._engine.now

    def reset_clock(self) -> None:
        """Zero the time buckets -- kernels call this after their setup /
        initialization phase so reported times cover only the measured
        region, as the paper's benchmarks do."""
        clock = self.clock
        clock.compute = clock.sync = 0.0
        clock.detail.clear()

    def _settle(self) -> None:
        """Charge the open operation (see the class docstring)."""
        t0, bucket, detail = self._open
        self._open = None
        dt = self._engine.now - t0
        self._clock.charge(bucket, dt, detail)
        tracer = self._tracer
        if tracer is not None and dt > 0:
            tracer.emit(t0, f"t{self.tid}", detail, duration=dt)

    def _start(self, bucket: str, detail: str) -> None:
        """Settle the open operation and open this one. (The hot operations
        -- memory, lock, barrier -- spell this inline: it is a call each.)"""
        if self._open is not None:
            self._settle()
        self._open = (self._engine.now, bucket, detail)

    def _exited(self, value) -> None:
        """Engine exit hook, at the thread's finish instant: record its
        result, last operation charged, in finish order (the float sums
        over ``RunResult.threads`` depend on it)."""
        if self._open is not None:
            self._settle()
        self._results[self.tid] = ThreadResult(self.tid, self._clock, value)

    # -- memory ----------------------------------------------------------
    def malloc(self, size: int):
        """Generator: allocate ``size`` bytes of shared memory."""
        self._start("compute", "alloc")
        return self._ops.malloc(self.tid, size)

    def malloc_shared(self, size: int):
        """Generator: allocate a page-aligned shared global (the analogue of
        a program global variable -- never placed in a thread arena)."""
        self._start("compute", "alloc")
        return self._ops.malloc(self.tid, size, True)

    def free(self, addr: int):
        """Generator: release an allocation."""
        self._start("compute", "alloc")
        return self._ops.free(self.tid, addr)

    def read(self, addr: int, nbytes: int):
        """Generator: read bytes; returns uint8 array (functional mode) or
        None (timing mode). Fault stalls are charged to compute time."""
        if self._open is not None:
            self._settle()
        self._open = (self._engine.now, "compute", "memory")
        return self._ops.mem_read(self.tid, addr, nbytes)

    def write(self, addr: int, nbytes: int, data: np.ndarray | None = None):
        """Generator: write bytes (data=None in timing mode)."""
        if self._open is not None:
            self._settle()
        self._open = (self._engine.now, "compute", "memory")
        return self._ops.mem_write(self.tid, addr, nbytes, data)

    def compute(self, elements: int, flops_per_element: float = 2.0):
        """Burn CPU for ``elements`` inner-loop elements (plain function;
        ``yield from`` what it returns). Charged at once: the burst's
        length is known before it runs."""
        if self._open is not None:
            self._settle()
        dt = self._element_time(elements, flops_per_element)
        self._clock.charge("compute", dt, "cpu")
        tracer = self._tracer
        if tracer is not None and dt > 0:
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
        if self._open is not None:
            self._settle()
        if self._run_plan is None:
            return self._submit_compat(plan)
        return self._run_plan(self.tid, plan, self._clock)

    def _submit_compat(self, plan: AccessPlan):
        """Generator: the per-op reference semantics of a plan."""
        results = []
        ops = plan.ops
        for j in range(0, len(ops), 6):
            kind, addr, nbytes, data, elements, flops = ops[j:j + 6]
            if kind == COMPUTE:
                yield from self.compute(elements, flops)
            elif kind == READ:
                results.append((yield from self.read(addr, nbytes)))
            else:
                if callable(data):
                    data = data(results)
                yield from self.write(addr, nbytes, data)
        return results

    # -- synchronization ---------------------------------------------------
    def lock(self, lock: Lock):
        """Acquire (enters a RegC consistency region). One that did not
        block is handed straight back: no time elapsed, so nothing to book
        (``fl(t + 0.0) == t``) and nothing to trace."""
        if self._open is not None:
            self._settle()
        op = self._ops.acquire_lock(self.tid, lock.id)
        if op is not DONE:
            self._open = (self._engine.now, "sync", "lock")
        return op

    def unlock(self, lock: Lock):
        """Release (leaves the consistency region, propagating its
        updates); like :meth:`lock`, untimed when it did not block."""
        if self._open is not None:
            self._settle()
        op = self._ops.release_lock(self.tid, lock.id)
        if op is not DONE:
            self._open = (self._engine.now, "sync", "lock")
        return op

    def barrier(self, barrier: Barrier):
        """Generator: barrier wait (a RegC global consistency point)."""
        if self._open is not None:
            self._settle()
        self._open = (self._engine.now, "sync", "barrier")
        return self._ops.barrier_wait(self.tid, barrier.id)

    def cond_wait(self, cond: Cond, lock: Lock):
        """Generator: POSIX-style condition wait (hold the lock)."""
        self._start("sync", "cond")
        return self._ops.cond_wait(self.tid, cond.id, lock.id)

    def cond_signal(self, cond: Cond):
        """Generator: wake one waiter."""
        self._start("sync", "cond")
        return self._ops.cond_signal(self.tid, cond.id, False)

    def cond_broadcast(self, cond: Cond):
        """Generator: wake all waiters."""
        self._start("sync", "cond")
        return self._ops.cond_signal(self.tid, cond.id, True)
