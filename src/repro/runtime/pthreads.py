"""The Pthreads baseline backend: a simulated hardware-coherent SMP.

Kernels run directly against shared memory: loads and stores cost what the
hardware coherence model charges (cold misses, coherence misses from true
and false sharing of 64-byte lines), and synchronization is nanosecond-scale
(atomic ops + futex-style waiting) instead of manager RPCs.

Allocation reuses the arena/zone classification so that "local allocation"
is thread-private exactly as glibc per-thread arenas make it; there is no
page home or striping because all memory is local DRAM.
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.allocator import AllocationKind, SamhitaAllocator
from repro.core.params import SamhitaConfig
from repro.errors import BackendError, SynchronizationError
from repro.hardware.coherent_cache import CoherentCacheModel
from repro.hardware.cpu import ComputeCostModel
from repro.hardware.specs import NodeSpec, PENRYN_NODE
from repro.memory.backing import BackingStore
from repro.memory.layout import MemoryLayout
from repro.runtime.backend import BaseBackend
from repro.sim.engine import Engine, Timeout
from repro.sim.resources import SimBarrier, SimMutex

#: Uncontended mutex acquire (an atomic RMW); a release costs half.
LOCK_OVERHEAD = 100e-9
#: Barrier entry, before the counter line bounces between the parties.
BARRIER_BASE_OVERHEAD = 400e-9
#: Condition-variable wait or signal (futex-style).
COND_OVERHEAD = 150e-9
#: glibc malloc from a thread's arena; a free costs half.
MALLOC_OVERHEAD = 120e-9


class _CondState:
    __slots__ = ("waiters",)

    def __init__(self):
        self.waiters: deque = deque()


class PthreadsBackend(BaseBackend):
    """The paper's baseline: threads on one cache-coherent node."""

    name = "pthreads"

    def __init__(self, n_threads: int, node: NodeSpec = PENRYN_NODE,
                 functional: bool = True, allow_oversubscribe: bool = False,
                 trace: bool = False):
        if n_threads > node.cores and not allow_oversubscribe:
            raise BackendError(
                f"{node.name} has {node.cores} cores; requested {n_threads} "
                f"threads (pass allow_oversubscribe=True to permit)")
        super().__init__(n_threads, functional=functional, trace=trace)
        self.node = node
        self._engine = Engine()
        # DRAM holds bytes only in functional mode; in timing mode the
        # cache model is the whole memory system and nothing reads frames.
        self.memory = (BackingStore(MemoryLayout(), name="dram")
                       if functional else None)
        self.cache = CoherentCacheModel(node.cache,
                                        cores_per_socket=node.cores_per_socket)
        self.cost_model = ComputeCostModel(node.cpu)
        # Reuse the size-class logic: arena allocations are thread-private
        # (page-aligned chunks), larger allocations contiguous -- the same
        # local/global layout semantics the micro-benchmark varies.
        self.allocator = SamhitaAllocator(SamhitaConfig(functional=functional))
        self._locks: dict[int, SimMutex] = {}
        self._barriers: dict[int, SimBarrier] = {}
        self._conds: dict[int, _CondState] = {}
        self._next_id = 0
        self._next_tid = 0

    @property
    def engine(self) -> Engine:
        return self._engine

    # -- object creation ---------------------------------------------------
    def _create_lock_id(self) -> int:
        self._next_id += 1
        self._locks[self._next_id] = SimMutex(self._engine, f"pth.lock{self._next_id}")
        return self._next_id

    def _create_barrier_id(self, parties: int) -> int:
        self._next_id += 1
        self._barriers[self._next_id] = SimBarrier(self._engine, parties,
                                                   f"pth.bar{self._next_id}")
        return self._next_id

    def _create_cond_id(self) -> int:
        self._next_id += 1
        self._conds[self._next_id] = _CondState()
        return self._next_id

    def _register_thread(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def cost_model_of(self, tid: int) -> ComputeCostModel:
        return self.cost_model

    # -- memory ops ----------------------------------------------------------
    def malloc(self, tid, size, shared=False):
        allocator = self.allocator
        kind = (AllocationKind.SHARED_ZONE if shared
                else allocator.classify(size))
        if kind is AllocationKind.ARENA:
            addr = allocator.arena_alloc(tid, size)
            if addr is None:
                allocator.refill_arena(tid, size)
                addr = allocator.arena_alloc(tid, size)
        elif kind is AllocationKind.SHARED_ZONE:
            addr = allocator.shared_alloc(size, tid)
        else:
            addr = allocator.striped_alloc(size, tid)
        yield Timeout(MALLOC_OVERHEAD)
        return addr

    def free(self, tid, addr):
        self.allocator.free(addr)
        yield Timeout(MALLOC_OVERHEAD / 2)

    def mem_read(self, tid, addr, nbytes):
        cost = self.cache.access(tid, addr, nbytes, is_write=False)
        if cost > 0.0:
            yield Timeout(cost)
        if self.memory is None:
            return None
        return self.memory.read_range(addr, nbytes)

    def mem_write(self, tid, addr, nbytes, data):
        cost = self.cache.access(tid, addr, nbytes, is_write=True)
        if cost > 0.0:
            yield Timeout(cost)
        if self.memory is not None:
            self.memory.write_range(addr, nbytes, data)

    # -- synchronization ---------------------------------------------------
    def _lock(self, lock_id) -> SimMutex:
        try:
            return self._locks[lock_id]
        except KeyError:
            raise SynchronizationError(f"unknown lock id {lock_id}") from None

    def acquire_lock(self, tid, lock_id):
        yield Timeout(LOCK_OVERHEAD)
        yield from self._lock(lock_id).acquire(tid)

    def release_lock(self, tid, lock_id):
        yield Timeout(LOCK_OVERHEAD / 2)
        self._lock(lock_id).release(tid)

    def barrier_wait(self, tid, barrier_id):
        try:
            barrier = self._barriers[barrier_id]
        except KeyError:
            raise SynchronizationError(f"unknown barrier id {barrier_id}") from None
        # Centralized counter barrier: the shared counter line bounces
        # between arrivals, so per-thread cost grows with the party count.
        cost = (BARRIER_BASE_OVERHEAD
                + barrier.parties * self.node.cache.coherence_miss_time)
        yield Timeout(cost)
        yield from barrier.wait()

    def cond_wait(self, tid, cond_id, lock_id):
        try:
            cond = self._conds[cond_id]
        except KeyError:
            raise SynchronizationError(f"unknown cond id {cond_id}") from None
        lock = self._lock(lock_id)
        if lock.owner != tid:
            raise SynchronizationError("cond_wait without holding the lock")
        yield Timeout(COND_OVERHEAD)
        gate = self._engine.event(f"pth.cond{cond_id}.wait")
        cond.waiters.append(gate)
        lock.release(tid)
        yield gate
        yield from lock.acquire(tid)

    def cond_signal(self, tid, cond_id, broadcast):
        try:
            cond = self._conds[cond_id]
        except KeyError:
            raise SynchronizationError(f"unknown cond id {cond_id}") from None
        yield Timeout(COND_OVERHEAD)
        count = len(cond.waiters) if broadcast else min(1, len(cond.waiters))
        for _ in range(count):
            cond.waiters.popleft().succeed()
        return count

    def stats_report(self) -> dict:
        return {"cache": self.cache.stats.snapshot(),
                "allocator": self.allocator.stats.snapshot()}
