"""Backend base: thread spawning, program execution, result collection.

A backend hands each thread its op table, which :class:`ThreadCtx` binds
once: the methods of :attr:`BaseBackend.ops` (the
:class:`~repro.core.system.SamhitaSystem` itself on Samhita, the backend on
Pthreads). Each takes the tid first and returns something to ``yield
from``; the right column is the detail key ``ThreadCtx`` charges it to::

    malloc(tid, size, shared=False) -> address      alloc
    free(tid, addr)                                 alloc
    mem_read(tid, addr, nbytes) -> bytes or None    memory
    mem_write(tid, addr, nbytes, data)              memory
    acquire_lock(tid, lock_id)                      lock
    release_lock(tid, lock_id)                      lock
    barrier_wait(tid, barrier_id)                   barrier
    cond_wait(tid, cond_id, lock_id)                cond
    cond_signal(tid, cond_id, broadcast) -> woken   cond

plus ``cost_model_of(tid).element_time`` (``ThreadCtx.compute``) and, with
``plans_supported``, ``run_plan(tid, plan, clock)`` (``ThreadCtx.submit``).
"""

from __future__ import annotations

import gc
from abc import ABC, abstractmethod

from repro.errors import BackendError
from repro.runtime.context import ThreadCtx
from repro.runtime.handles import Barrier, Cond, Lock
from repro.runtime.results import RunResult, ThreadResult
from repro.sim.stats import StatSet
from repro.sim.trace import Tracer


class BaseBackend(ABC):
    """Shared spawn/run machinery for both execution backends."""

    name: str = "base"
    #: Whether ``run_plan`` executes access plans (see ``ThreadCtx.submit``).
    plans_supported: bool = False

    def __init__(self, n_threads: int, functional: bool = True,
                 trace: bool = False):
        if n_threads < 1:
            raise BackendError("need at least one thread")
        self.n_threads = n_threads
        self.functional = functional
        #: Per-operation interval trace (thread, category, start, duration);
        #: off by default -- enable for the timeline view.
        self.tracer = Tracer(enabled=trace)
        #: tid -> result, in finish order (``ThreadCtx._exited``).
        self._results: dict[int, ThreadResult] = {}
        self._spawned = 0
        self._ran = False

    # -- engine and op table come from the concrete backend ----------------
    @property
    @abstractmethod
    def engine(self):
        ...

    @property
    def ops(self):
        """The object whose methods are the op table (module docstring)."""
        return self

    @abstractmethod
    def cost_model_of(self, tid: int):
        """The ComputeCostModel pricing ``tid``'s compute bursts."""

    # -- synchronization object creation ---------------------------------
    @abstractmethod
    def _create_lock_id(self) -> int:
        ...

    @abstractmethod
    def _create_barrier_id(self, parties: int) -> int:
        ...

    @abstractmethod
    def _create_cond_id(self) -> int:
        ...

    def create_lock(self) -> Lock:
        return Lock(self._create_lock_id())

    def create_barrier(self, parties: int | None = None) -> Barrier:
        parties = parties if parties is not None else self.n_threads
        return Barrier(self._create_barrier_id(parties), parties)

    def create_cond(self) -> Cond:
        return Cond(self._create_cond_id())

    # -- thread lifecycle --------------------------------------------------
    @abstractmethod
    def _register_thread(self) -> int:
        """Create backend-side thread state; returns the tid."""

    def spawn(self, program, *args) -> int:
        """Register a kernel body; it starts when :meth:`run` is called.

        ``program`` is a generator function ``program(ctx, *args)``; its
        generator is the thread's process, and the context's exit hook
        records the result when it returns.
        """
        if self._ran:
            raise BackendError("cannot spawn after run()")
        if self._spawned >= self.n_threads:
            raise BackendError(f"backend sized for {self.n_threads} threads")
        tid = self._register_thread()
        self._spawned += 1
        ctx = ThreadCtx(self, tid, self.n_threads)
        proc = self.engine.process(program(ctx, *args), name=f"thread{tid}")
        proc.on_exit = ctx._exited
        return tid

    def spawn_all(self, program, *args) -> list[int]:
        """Spawn ``n_threads`` copies of one kernel body."""
        return [self.spawn(program, *args) for _ in range(self.n_threads)]

    # -- execution -----------------------------------------------------------
    def run(self) -> RunResult:
        if self._spawned == 0:
            raise BackendError("nothing spawned")
        self._ran = True
        # The event loop allocates millions of short-lived tuples and
        # generator frames; cyclic-GC passes over that churn cost ~13% of
        # wall-clock and can never free anything the sim still needs.
        # Collection is disabled for the run's duration. A run's
        # engine/system graph is cyclic (components back-reference the
        # system, processes the engine), so for callers that never
        # :meth:`dispose` their backends, skipping collection entirely
        # would leak; the threshold collect below is their backstop. It
        # runs BEFORE the run starts, not after it ends: at run end the
        # just-finished graph is still reachable (dispose comes later), so
        # a collect there scans everything and frees nothing, while by the
        # next run's start a disposed predecessor has died by refcount
        # (:meth:`dispose` cuts every back-edge of the run graph, pinned
        # by tests/runtime/test_dispose_refcount.py) and the gen-0 count
        # stays far below the threshold.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            if gc.get_count()[0] >= 100_000:
                gc.collect()
            gc.disable()
        try:
            elapsed = self.engine.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        if len(self._results) < self._spawned:  # pragma: no cover
            raise BackendError("threads never finished")  # (deadlock first)
        stats = self.stats_report()
        engine_stats = StatSet("engine")
        engine = self.engine
        engine_stats.incr("scheduled_events", engine.scheduled_events)
        engine_stats.incr("coalesced_events", engine.coalesced_events)
        engine_stats.incr("epochs_run", engine.epochs_run)
        engine_stats.incr("epoch_peak", engine.epoch_peak)
        stats["engine"] = engine_stats.snapshot()
        stats["engine"]["variant"] = engine.variant
        return RunResult(
            backend=self.name,
            n_threads=self._spawned,
            elapsed=elapsed,
            threads=dict(self._results),
            stats=stats,
        )

    def stats_report(self) -> dict:
        return {}

    def dispose(self) -> None:
        """Break the finished run's reference cycles (see :meth:`run`'s GC
        note): the engine's process list and the event heap are the cycle
        anchors (a process holds its context's op table); with them cut the
        whole engine/system graph dies by refcount the moment the caller
        drops the backend, and the deferred cyclic collection has nothing
        left to find. Called by the experiment harness on throwaway
        backends; the backend is unusable afterwards.
        """
        engine = self.engine
        engine._procs.clear()
        engine.clear_pending()
