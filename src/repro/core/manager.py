"""The Samhita manager.

"The manager is responsible for memory allocation, synchronization and
thread placement." Every synchronization operation is an RPC to the
manager shard that owns the object (plus the memory-consistency work it
triggers), which is exactly why Samhita's synchronization costs more than
Pthreads' -- and why §V proposes the single-node optimization reproduced
here as ``config.local_sync_optimization``.

A manager owns its share of the lock table (with per-lock fine-grained
update logs), of the barrier table (write-notice aggregation ->
BarrierPlan) and of the condition-variable wait queues, and serves the
allocation RPCs routed to it. Every shard -- one on the default build --
shares the one allocator and the one page directory; the object ids are
the control plane's (:class:`~repro.core.control_plane.ControlPlane`).
"""

from __future__ import annotations

from collections import deque

from repro.core import protocol
from repro.core.allocator import AllocationKind, SamhitaAllocator
from repro.core.consistency import (
    BarrierPlan,
    LockUpdateLog,
    group_reply,
    plan_barrier,
)
from repro.core.params import MANAGER_SERVICE_TIME
from repro.errors import SynchronizationError
from repro.interconnect.scl import CONTROL_BYTES, SCL
from repro.memory.directory import PageDirectory
from repro.sim.engine import DONE, PARK, Engine
from repro.sim.resources import Resource
from repro.sim.stats import StatSet

#: Memoized per-category request counter keys (``routing._CATEGORY_KEYS``'s
#: idiom): one string build per category, not per request.
_REQUEST_KEYS: dict[str, str] = {}


class CrClock:
    """Shared monotone count of consistency-region log appends.

    One instance per control plane (the ControlPlane hands the same object
    to every shard manager); it only ever increases, so a snapshot equal to
    the current value proves no lock log anywhere gained an epoch since the
    snapshot was taken -- even across shard failovers, where a per-manager
    counter sum could collapse back to a previously seen value.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class _LockState:
    __slots__ = ("id", "holder", "waiters", "log", "cached_at", "revoking")

    def __init__(self, lock_id: int):
        self.id = lock_id
        self.holder: int | None = None
        #: ``(tid, process, component, manager)`` of each queued acquirer,
        #: in grant order: :meth:`Manager._hand_over` has ``manager`` -- the
        #: shard that queued it, even if a failover has merged this lock
        #: into a successor since -- answer the head's acquire.
        self.waiters: deque = deque()
        self.log = LockUpdateLog()
        #: ``(tid, component)`` holding a cached ownership grant
        #: (``config.lock_owner_cache``): the last releaser found no
        #: waiters and kept the grant locally, so its repeat acquires skip
        #: the manager. A contending acquire revokes it (see
        #: :meth:`Manager._revoke_cached`). None while uncached.
        self.cached_at: tuple[int, str] | None = None
        #: Gate held by an in-flight revocation. Revokes are single-flight:
        #: the first contender claims it, later contenders wait here, then
        #: re-check. Without it, two concurrent revokes of the same grant
        #: could both run and the second would clobber the first's grant.
        self.revoking = None

    @property
    def name(self) -> str:
        """What a deadlock report says a queued acquirer waits on."""
        return f"lock{self.id}.wait"


class _BarrierState:
    __slots__ = ("parties", "generation", "arrived", "waiting", "departed",
                 "plan", "flush_remaining", "flush_gate", "numbers", "sent",
                 "closed")

    def __init__(self, engine: Engine, parties: int, generation: int):
        self.parties = parties
        self.generation = generation
        self.arrived: dict[int, list[int]] = {}
        #: ``(manager, process, component, arrivals)`` of every arrival
        #: group served before the last, in order: the party the last one
        #: releases, each answered by the shard that served it.
        self.waiting: list = []
        #: Threads that hold their directive (see ``Manager._prune_logs``).
        self.departed = 0
        self.plan: BarrierPlan | None = None
        self.flush_remaining = 0
        self.flush_gate = engine.event(f"barrier.gen{generation}.flush")
        #: Numbered (``Manager._arrived``): tid -> number, and directive
        #: sent; the last closed round, which only the open round holds.
        self.numbers: dict[int, int] = {}
        self.sent: dict[int, tuple] = {}
        self.closed: _BarrierState | None = None

    @property
    def name(self) -> str:
        """What a deadlock report says a waiting arrival waits on."""
        return f"barrier.gen{self.generation}.arrive"


class _CondState:
    __slots__ = ("waiters",)

    def __init__(self):
        self.waiters: deque = deque()


class Manager:
    """Allocation + synchronization coordinator."""

    def __init__(self, engine: Engine, component: str, config,
                 allocator: SamhitaAllocator, directory: PageDirectory, scl: SCL):
        self.engine = engine
        self.component = component
        self.config = config
        self.allocator = allocator
        self.directory = directory
        self.scl = scl
        #: §V: threads co-located with the manager use local atomics, no
        #: RPC. None (never equal to a component) with the optimization off.
        self._local = component if config.local_sync_optimization else None
        self.resource = Resource(engine, capacity=1, name="manager")
        self.stats = StatSet("manager")
        self._locks: dict[int, _LockState] = {}
        self._barriers: dict[int, _BarrierState] = {}
        self._conds: dict[int, _CondState] = {}
        #: Full thread population (the system registers every spawn); the
        #: lock-log garbage collector needs it to compute a safe horizon.
        self.known_threads: set[int] = set()
        #: Monotone count of lock-log appends across every manager that
        #: shares this clock (the ControlPlane hands all shards one
        #: instance). A barrier arrival whose thread has already walked the
        #: lock table at the current clock value can skip the whole
        #: O(locks) coherence scan -- nothing was appended anywhere since,
        #: so every per-lock ``updates_since`` would be an empty no-op.
        self.cr_clock = CrClock()
        self._cr_seen: dict[int, int] = {}
        #: Clock value at which a prune pass left every visible log empty;
        #: until the clock moves again, pruning is a guaranteed no-op.
        self._prune_clean_at = -1
        #: Sharded-control-plane hooks, wired by the ControlPlane when
        #: ``config.manager_shards > 1``; all None on the single-manager
        #: build so every call site is one falsy check.
        #: Callable yielding lock states across ALL shards (barrier CR
        #: collection must see every shard's logs, not just this one's).
        self.cr_source = None
        #: Generator hook charging the root's cross-shard log gather at
        #: barrier-round completion.
        self.cr_gather = None
        #: Cross-shard lock-log pruner (defaults to the local one).
        self.prune_hook = None
        #: component -> ComputeServer resolver, wired by the system when
        #: ``config.lock_owner_cache`` is on; lets a contending acquire
        #: revoke another component's cached ownership grant.
        self.cache_registry = None

    # ------------------------------------------------------------------
    # object registration (zero-cost: done at program setup time). The
    # control plane owns the id counter and places object i on shard i % n.
    # ------------------------------------------------------------------
    def register_lock(self, lock_id: int) -> None:
        self._locks[lock_id] = _LockState(lock_id)

    def register_barrier(self, barrier_id: int, parties: int) -> None:
        self._barriers[barrier_id] = _BarrierState(self.engine, parties, 0)

    def register_cond(self, cond_id: int) -> None:
        self._conds[cond_id] = _CondState()

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _rpc(self, comp: str, nbytes: int = CONTROL_BYTES,
             category: str = "sync", body=None, args: tuple = ()):
        """Generator: one request message into the manager + service time.

        One suspension: a request that is a pure delay (``SCL.flight``)
        joins the service queue as an engine callback at its arrival
        instant, and the caller is resumed once, when it is answered.

        Without a ``body`` the answer is the service completion itself.

        With one, ``body(proc, *args)`` is the operation's handler: it runs
        at the service completion -- an engine callback (:meth:`_handle`)
        when the caller had to park -- and says what happens next:

        * ``None``: the caller was queued (a held lock, a barrier party
          still arriving); whoever dequeues it answers it (:meth:`_respond`);
        * ``(nbytes, slot, result)``: answer now with a reply of ``nbytes``,
          after a manager service slot if ``slot``;
        * anything else: the rest of the operation is not a pure delay (a
          revoke, a cross-shard gather) and the caller drives it: what the
          handler returned is ``yield from``-ed for the result.

        Returns the result the caller was answered with."""
        engine = self.engine
        proc = engine.active
        if comp == self._local:
            # §V: co-located threads use local atomics, no RPC.
            if body is None:
                return
            out = body(proc, *args)
        else:
            at = self.scl.flight(comp, self.component, nbytes, category)
            if at is None:
                t = self.scl.send(comp, self.component, nbytes,
                                  category=category)
                if t is not None:
                    yield from t
            if body is None:
                if not self.resource.serve(MANAGER_SERVICE_TIME, at,
                                           engine._step, proc, None, None):
                    yield PARK
                self._served(category)
                return
            if self.resource.serve(MANAGER_SERVICE_TIME, at, self._handle,
                                   proc, comp, category, body, args):
                self._served(category)
                out = body(proc, *args)
            else:
                out = None
        if out is not None:
            # Answered within the caller's own step (served inline, or
            # co-located): the caller drives the rest.
            if type(out) is tuple and out:
                return (yield from self._reply_here(comp, category, *out))
            return (yield from out)
        # :meth:`_await`, spelled inline: this is every parked caller's
        # resumption, and delegating costs two calls more per resume (the
        # generator's entry and its resumption): 57,157 per ``sync_storm``
        # pass, 1.4 % of its ``host_calls``.
        rest, result = yield PARK
        if result is None:
            return (yield from rest)
        yield from rest
        return result

    def _await(self):
        """Generator: park until answered. Whoever answers hands over the
        result and whatever is left of the reply to drive (``DONE`` when it
        was a pure delay; see :meth:`_reply_to`); a result of ``None``
        means what is left computes it (:meth:`_handle`). :meth:`_rpc`
        spells the same resumption inline; change both together."""
        rest, result = yield PARK
        if result is None:
            return (yield from rest)
        yield from rest
        return result

    def _served(self, category: str) -> None:
        """One request has been through its service: free the unit, count."""
        self.resource.release(MANAGER_SERVICE_TIME)
        key = _REQUEST_KEYS.get(category)
        if key is None:
            key = _REQUEST_KEYS[category] = "requests." + category
        counters = self.stats.counters
        counters["requests"] += 1
        counters[key] += 1

    def _handle(self, proc, comp: str, category: str, body, args) -> None:
        """Service completion of a request whose caller is parked: the
        handler body runs here, in the bucket slot where the caller would
        have been resumed to run it (see :meth:`_rpc`)."""
        self._served(category)
        try:
            out = body(proc, *args)
        except Exception as exc:  # noqa: BLE001 - the caller's error
            # Raised in the caller, where a handler it ran itself raises.
            self.engine._step(proc, None, exc)
            return
        if out is None:
            return
        if type(out) is tuple and out:
            self._respond(proc, comp, category, *out)
        else:
            self.engine._step(proc, (out, None), None)

    def _respond(self, proc, comp: str, category: str, nbytes: int,
                 slot: bool, result) -> None:
        """Answer a parked caller from a continuation: take a service slot
        first if ``slot`` (a directive reply), then send the reply."""
        if slot:
            self.resource.arrive(MANAGER_SERVICE_TIME, self._reply_to,
                                 (proc, comp, category, nbytes, result, True))
        else:
            self._reply_to(proc, comp, category, nbytes, result, False)

    def _reply_to(self, proc, comp: str, category: str, nbytes: int, result,
                  slot: bool) -> None:
        """The reply to a parked caller leaves from here (its service slot,
        if it held one, is freed first), and the caller is stepped once,
        with ``(DONE, result)``, when it lands -- or now, handed the reply
        to drive, if that is not a pure delay. The same bucket slots as a
        caller that woke to send it."""
        if slot:
            self.resource.release(MANAGER_SERVICE_TIME)
        engine = self.engine
        if comp == self._local:
            engine._step(proc, (DONE, result), None)
            return
        at = self.scl.flight(self.component, comp, nbytes, category)
        if at is None:
            engine._step(proc, (self._reply(comp, nbytes, category), result),
                         None)
        elif engine.try_advance_to(at):
            engine._step(proc, (DONE, result), None)
        else:
            engine.schedule_at(at, engine._step, proc, (DONE, result), None)

    def _reply_here(self, comp: str, category: str, nbytes: int, slot: bool,
                    result):
        """Generator: :meth:`_respond` for a caller that is running (its
        request was served inline, or it leads a tree cell). One
        suspension: if the service slot cannot be had inline, the rest is
        :meth:`_reply_to`'s, as for a parked caller."""
        if slot:
            if not self.resource.serve(MANAGER_SERVICE_TIME, None,
                                       self._reply_to, self.engine.active,
                                       comp, category, nbytes, result, True):
                return (yield from self._await())
            self.resource.release(MANAGER_SERVICE_TIME)
        yield from self._reply(comp, nbytes, category)
        return result

    def _reply(self, comp: str, nbytes: int = CONTROL_BYTES, category: str = "sync"):
        """One reply message out of the manager. Plain function: returns
        what the handler must ``yield from`` (``DONE`` when the message was
        local or completed inline)."""
        if comp == self._local:
            return DONE
        t = self.scl.send(self.component, comp, nbytes, category=category)
        return DONE if t is None else t

    # ------------------------------------------------------------------
    # allocation RPCs
    # ------------------------------------------------------------------
    def alloc_rpc(self, tid: int, comp: str, size: int, force_shared: bool = False):
        """Generator: manager-mediated allocation (strategies 2 and 3, and
        arena refills). Returns the address (or None for pure refills).

        ``force_shared`` bypasses the size classification and allocates
        page-aligned from the shared zone -- the path for program globals
        that must not share pages with any thread's arena data. The thread
        picks the address slice, so a shard failover's successor serves a
        dead shard's threads from the slice they always used.
        """
        allocator = self.allocator
        yield from self._rpc(comp, protocol.alloc_request_bytes(), category="alloc")
        kind = (AllocationKind.SHARED_ZONE if force_shared
                else allocator.classify(size))
        if kind is AllocationKind.ARENA:
            allocator.refill_arena(tid, size)
            addr = None
        elif kind is AllocationKind.SHARED_ZONE:
            addr = allocator.shared_alloc(size, tid)
        else:
            addr = allocator.striped_alloc(size, tid)
        yield from self._reply(comp, protocol.alloc_reply_bytes(), category="alloc")
        self.stats.incr("allocs")
        return addr

    def free_rpc(self, tid: int, comp: str, addr: int):
        yield from self._rpc(comp, category="alloc")
        self.allocator.free(addr)
        yield from self._reply(comp, category="alloc")

    # ------------------------------------------------------------------
    # locks (consistency regions)
    # ------------------------------------------------------------------
    def _lock(self, lock_id: int) -> _LockState:
        try:
            return self._locks[lock_id]
        except KeyError:
            raise SynchronizationError(f"unknown lock id {lock_id}") from None

    def acquire_lock(self, tid: int, comp: str, lock_id: int):
        """The acquire RPC's generator: it ends when the lock is granted and
        returns the pending fine-grained updates (diffs, payload_bytes,
        span_count, invalidate) the acquirer must apply. Its handler is
        :meth:`_acquire`; a queued acquirer sleeps from its request to its
        grant's arrival."""
        return self._rpc(comp, category="lock", body=self._acquire,
                         args=(self._lock(lock_id), tid, comp))

    def _acquire(self, proc, lock: _LockState, tid: int, comp: str):
        """Handler body of an acquire (see :meth:`_rpc`): take the lock and
        grant it, or queue the caller behind the holder."""
        if self.cache_registry is not None and (
                lock.revoking is not None or lock.cached_at is not None):
            return self._acquire_revoking(proc, lock, tid, comp)
        if lock.holder is None:
            lock.holder = tid
        elif lock.holder != tid:
            lock.waiters.append((tid, proc, comp, self))
            proc.blocked_on = lock
            return None
        # (holder == tid: a retried RPC of an already-granted request -- the
        # original reply was lost to a shard crash -- is re-replied to
        # without re-queueing.)
        return self._grant(lock, tid)

    def _grant(self, lock: _LockState, tid: int):
        """The grant of ``lock`` to its holder ``tid``: its reply size, no
        service slot, and the updates it carries."""
        grant = lock.log.updates_since(tid)
        self.stats.counters["lock_acquires"] += 1
        _diffs, payload, spans, invalidate = grant
        return (protocol.lock_grant_bytes(payload, spans + len(invalidate)),
                False, grant)

    def _hand_over(self, lock: _LockState) -> None:
        """Grant ``lock`` to its first waiter. The grant is answered from a
        continuation in the bucket slot the waiter's own resumption would
        take at this instant."""
        tid, proc, comp, mgr = lock.waiters.popleft()
        lock.holder = tid
        self.engine.schedule(0.0, mgr._granted, lock, tid, proc, comp)

    def _granted(self, lock: _LockState, tid: int, proc, comp: str) -> None:
        self._respond(proc, comp, "lock", *self._grant(lock, tid))

    def _acquire_revoking(self, proc, lock: _LockState, tid: int, comp: str):
        """Generator: the rest of an acquire that found the grant cached at
        a component (``config.lock_owner_cache``). The revoke's messages
        are the caller's to wait through; then it takes or queues as
        :meth:`_acquire` does."""
        while True:
            if lock.revoking is not None:
                # Another contender is mid-revoke: wait it out, then
                # re-check (the grant may have been re-cached since).
                yield lock.revoking
                continue
            if lock.cached_at is not None:
                yield from self._revoke_cached(lock)
            break
        out = self._acquire(proc, lock, tid, comp)
        if out is not None:
            return (yield from self._reply_here(comp, "lock", *out))
        return (yield from self._await())

    def _revoke_cached(self, lock: _LockState):
        """Generator: a contending acquire found the lock cached at another
        component. Send a revoke; the caching component either surrenders
        its stashed release records inline (idle grant -- the records join
        the log and the lock is free) or marks the grant revoke-pending
        (locally held -- the manager restores the holder and the contender
        queues behind it; the eventual release RPC carries the stash)."""
        ctid, ccomp = lock.cached_at
        lock.revoking = self.engine.event(f"revoke.{ccomp}")
        try:
            t = self.scl.send(self.component, ccomp, category="lock")
            if t is not None:
                yield from t
            verdict, payload = self.cache_registry(ccomp).lock_cache_surrender(
                lock.id)
            self.stats.counters["lock_cache_revokes"] += 1
            if verdict == "idle":
                t = self.scl.send(ccomp, self.component,
                                  CONTROL_BYTES + self._stash_bytes(payload),
                                  category="lock")
                if t is not None:
                    yield from t
                self._absorb_stash(lock, payload, ctid)
                lock.cached_at = None
                lock.holder = None
            else:
                # payload is the holding tid: hand the manager-side state
                # back to the de-facto holder; the contender waits its turn.
                lock.cached_at = None
                lock.holder = payload
        finally:
            gate, lock.revoking = lock.revoking, None
            gate.succeed()

    @staticmethod
    def _stash_bytes(stash) -> int:
        """Wire bytes of a stash of release records shipped whole (a
        surrender, a barrier-entry flush): one release message each."""
        nbytes = 0
        for _diffs, payload, spans, _inval in stash:
            nbytes += protocol.release_message_bytes(payload, spans)
        return nbytes

    def _absorb_stash(self, lock: _LockState, stash, tid: int) -> None:
        """Append a surrendered/flushed stash of release records (in their
        original order) to the lock's update log."""
        for diffs, payload, _spans, invalidate in stash:
            if diffs or payload or invalidate:
                if lock.log.append(diffs, invalidate) >= lock.log.prune_at:
                    self._prune_log(lock.log)
                self.cr_clock.value += 1
        if stash:
            # The stasher has seen its own records by construction.
            lock.log.last_seen[tid] = max(
                lock.log.last_seen.get(tid, 0), lock.log.version)

    def release_lock(self, tid: int, comp: str, lock_id: int, diffs: list,
                     payload_bytes: int, span_count: int, invalidate_pages=(),
                     stash=()):
        """Generator: record the releaser's store-log updates and hand the
        lock to the next waiter. The caller has already written the updates
        through to the page homes.

        ``stash`` carries release records a revoked ownership cache held
        back; they are logged (in order) ahead of this release's own.
        Returns True when the releaser may keep the grant cached
        (``config.lock_owner_cache``, no waiters).
        """
        lock = self._lock(lock_id)
        if lock.holder != tid:
            raise SynchronizationError(
                f"thread {tid} releasing lock {lock_id} held by {lock.holder}")
        wire_payload, wire_spans = payload_bytes, span_count
        for _diffs, payload, spans, _inval in stash:
            wire_payload += payload
            wire_spans += spans
        yield from self._rpc(
            comp, protocol.release_message_bytes(wire_payload, wire_spans),
            category="lock")
        if stash:
            self._absorb_stash(lock, stash, tid)
        if diffs or payload_bytes or invalidate_pages:
            if lock.log.append(diffs, invalidate_pages) >= lock.log.prune_at:
                self._prune_log(lock.log)
            self.cr_clock.value += 1
        cacheable = False
        if lock.waiters:
            self._hand_over(lock)
        else:
            lock.holder = None
            if self.cache_registry is not None:
                lock.cached_at = (tid, comp)
                cacheable = True
        self.stats.counters["lock_releases"] += 1
        return cacheable

    def absorb_lock_stash(self, tid: int, lock_id: int, stash) -> None:
        """Synchronously log a drained stash of release records.

        Plain function on purpose: the records must enter the log at the
        same instant the compute server drains its stash. If absorption
        waited for the flush RPC's delivery, a concurrent revoke could find
        the stash already empty, grant the contender, and the flushed
        records would land in the log AFTER updates that logically followed
        them -- out-of-order CR propagation. The wire cost is charged
        separately by :meth:`flush_lock_stash`."""
        self._absorb_stash(self._lock(lock_id), stash, tid)
        self.stats.counters["lock_cache_flushes"] += 1

    def flush_lock_stash(self, tid: int, comp: str, lock_id: int, stash):
        """The generator of a barrier-entry flush of a cached grant's
        stashed release records -- RegC's global consistency point must
        see every release, cached or not. The grant itself stays cached.
        The records were already absorbed (:meth:`absorb_lock_stash`); this
        charges the message exchange."""
        return self._rpc(comp, CONTROL_BYTES + self._stash_bytes(stash),
                         category="lock", body=self._flushed)

    @staticmethod
    def _flushed(proc):
        """Handler body of a stash flush: nothing left to log, a control
        reply (see :meth:`_rpc`)."""
        return CONTROL_BYTES, False, None

    def holds_lock(self, tid: int, lock_id: int) -> bool:
        return self._lock(lock_id).holder == tid

    def _prune_log(self, log) -> None:
        """Prune one lock's log outside a barrier round, next after a
        population's worth of appends: a lock-only program keeps O(threads)
        epochs per lock, at O(1) amortised work per release."""
        log.prune(self.known_threads)
        log.prune_at = log.version + len(self.known_threads)

    def prune_lock_logs(self, all_tids) -> bool:
        """Garbage-collect fine-grain logs every thread has consumed.

        Returns True when any log still retains epochs afterwards (the
        prune-skip bookkeeping in :meth:`_prune_logs` needs to know)."""
        retained = False
        for lock in self._locks.values():
            log = lock.log
            if len(log):
                log.prune(all_tids)
                if len(log):
                    retained = True
        return retained

    # ------------------------------------------------------------------
    # barriers (global consistency points)
    # ------------------------------------------------------------------
    def _barrier(self, barrier_id: int) -> _BarrierState:
        try:
            return self._barriers[barrier_id]
        except KeyError:
            raise SynchronizationError(f"unknown barrier id {barrier_id}") from None

    def barrier_parties(self, barrier_id: int) -> int:
        return self._barrier(barrier_id).parties

    def _cr_updates(self, tid: int):
        """Pending consistency-region updates for ``tid`` across every lock
        this control plane can see (all shards when ``cr_source`` is wired,
        else the local table): ``(diffs, pages to invalidate)``."""
        cr_diffs: list = []
        cr_invalidate: set[int] = set()
        clock = self.cr_clock.value
        if clock == 0 or self._cr_seen.get(tid) == clock:
            # Either no lock log anywhere has ever gained an epoch, or none
            # has since this thread's last full walk (which left it up to
            # date on every lock): the whole O(locks) scan would be empty
            # no-ops. The clock is monotone, so a stale snapshot can never
            # alias the current value.
            return cr_diffs, cr_invalidate
        locks = self.cr_source() if self.cr_source is not None \
            else self._locks.values()
        for lock in locks:
            log = lock.log
            if log.last_seen.get(tid, 0) >= log.version:
                # Up to date on this lock: updates_since would return empty
                # and leave last_seen unchanged. Skipping it keeps the
                # every-lock walk O(locks) dict probes instead of O(locks)
                # method calls + comprehensions.
                continue
            diffs, _payload, _spans, invalidate = log.updates_since(tid)
            cr_diffs += diffs
            if invalidate:  # page-grain ablation only
                cr_invalidate.update(invalidate)
        self._cr_seen[tid] = clock
        return cr_diffs, cr_invalidate

    def _prune_logs(self) -> None:
        """Garbage-collect the lock logs, behind a barrier round's *last*
        departure: once per round is all it takes, and since pruning only
        drops epochs no thread can ask for again (``updates_since`` slices
        by version), when it runs is invisible to the simulation."""
        clock = self.cr_clock.value
        if self._prune_clean_at == clock:
            # The last prune pass left every visible log empty and nothing
            # was appended since: pruning again is a guaranteed no-op
            # (last_seen bumps alone cannot make an empty log prunable).
            return
        if self.prune_hook is not None:
            retained = self.prune_hook(self.known_threads)
        else:
            retained = self.prune_lock_logs(self.known_threads)
        if not retained:
            self._prune_clean_at = clock

    def barrier_arrive(self, comp: str, barrier_id: int,
                       arrivals: dict[int, list[int]], number=None):
        """The arrival RPC's generator: submit write notices, wait for the
        full party, and receive the directives. One message carries the
        notices of every thread in ``arrivals`` -- one thread when it
        arrives flat, a compute node's or a cell's when a combining leader
        arrives for them -- and one directive reply carries everyone's
        directives back. Its handler is :meth:`_arrived`; an arrival that
        is not the last sleeps from its request to its directives' arrival.
        ``number`` is the group's count of its arrivals here, or None.

        The generator returns ``(state, {tid: (invalidate, flush, cr_diffs,
        cr_inval)})`` -- the state handle is needed for the flush-completion
        phase.
        """
        state = self._barrier(barrier_id)
        total_notices = 0
        for notices in arrivals.values():
            total_notices += len(notices)
        return self._rpc(comp, protocol.notice_message_bytes(total_notices),
                         "barrier", body=self._arrived,
                         args=(state, barrier_id, arrivals, comp, number))

    def _arrived(self, proc, state: _BarrierState, barrier_id: int,
                 arrivals: dict[int, list[int]], comp: str, number):
        """Handler body of an arrival (see :meth:`_rpc`): register the
        group's notices; the last arrival plans the round, releases the
        party and departs, every other one joins the party. A re-issue of
        one the last closed round answered (same number) is answered again."""
        closed = state.closed
        if closed is not None:
            for tid in arrivals:
                break
            if tid in closed.numbers and closed.numbers[tid] == number:
                self.stats.counters["barrier_reanswers"] += 1
                mine, reply_bytes = group_reply(arrivals, closed.sent)
                return reply_bytes, comp != self._local, (closed, mine)
        arrived = state.arrived
        for tid, notices in arrivals.items():
            if tid in arrived:
                raise SynchronizationError(
                    f"thread {tid} arrived twice at barrier {barrier_id}")
            arrived[tid] = notices
            if number is not None:
                state.numbers[tid] = number
        if len(arrived) != state.parties:
            state.waiting.append((self, proc, comp, arrivals))
            proc.blocked_on = state
            return None
        if self.cr_gather is not None:
            return self._gather_and_close(state, barrier_id, arrivals, comp)
        self._close_round(state, barrier_id)
        return self._depart(state, arrivals, comp)

    def _gather_and_close(self, state: _BarrierState, barrier_id: int,
                          arrivals: dict[int, list[int]], comp: str):
        """Generator: the last arrival on a sharded control plane pulls the
        other shards' lock logs before the plan -- round trips that are its
        to wait through -- then closes the round as :meth:`_arrived`
        does."""
        yield from self.cr_gather(self)
        self._close_round(state, barrier_id)
        return (yield from self._reply_here(
            comp, "barrier", *self._depart(state, arrivals, comp)))

    def _close_round(self, state: _BarrierState, barrier_id: int) -> None:
        """Plan the round, roll the barrier over to a fresh generation, and
        release the party: each waiting group departs from a continuation
        in the bucket slot its own resumption would take at this instant,
        in arrival order."""
        plan = state.plan = plan_barrier(state.arrived, self.directory)
        state.flush_remaining = sum(map(bool, plan.flush.values()))
        if state.flush_remaining == 0:
            state.flush_gate.succeed()
        self._barriers[barrier_id] = fresh = _BarrierState(
            self.engine, state.parties, state.generation + 1)
        self.stats.counters["barrier_rounds"] += 1
        if state.waiting:
            self.engine.schedule_each(self._departing, state.waiting, state)
        if state.numbers:
            fresh.closed, state.closed = state, None
            state.waiting.clear()  # the engine copied them: no process kept

    @staticmethod
    def _departing(waiting: tuple, state: _BarrierState) -> None:
        mgr, proc, comp, arrivals = waiting
        mgr._respond(proc, comp, "barrier",
                     *mgr._depart(state, arrivals, comp))

    def _depart(self, state: _BarrierState, arrivals: dict[int, list[int]],
                comp: str):
        """One group's directive reply: its size, a service slot (the
        manager serializes these sends; none for a co-located group) and
        ``(state, directives)``.

        A round that noticed no page, while no lock log anywhere has ever
        gained an epoch, is quiet: every thread gets the one shared empty
        directive. The clock is read here, as the group departs, not when
        the round closed: a thread that departed earlier may have released
        a lock since."""
        plan = state.plan
        if not plan.pages.size and self.cr_clock.value == 0:
            directives, reply_bytes = group_reply(arrivals)
        else:
            directives, reply_bytes = group_reply(
                arrivals, self._directives(plan, arrivals))
        if state.numbers:
            for tid in directives:
                state.sent[tid] = directives[tid]
        state.departed += len(arrivals)
        if state.departed == state.parties:
            self._prune_logs()
        return reply_bytes, comp != self._local, (state, directives)

    def _directives(self, plan: BarrierPlan, arrivals: dict[int, list[int]]):
        """``{tid: directive}`` for one departing group of a round that is
        not quiet."""
        directives = {}
        for tid in arrivals:
            # A barrier is RegC's *global* consistency point: it must also
            # make consistency-region updates visible to threads that never
            # acquire the corresponding lock. Collect every lock-log update
            # this thread has not yet seen and ship it with the directive.
            cr_diffs, cr_invalidate = self._cr_updates(tid)
            directives[tid] = (plan.directive(tid), plan.flush[tid], cr_diffs,
                               sorted(cr_invalidate) if cr_invalidate else [])
        return directives

    def barrier_flush_done(self, tid: int, comp: str, state: _BarrierState):
        """Generator: report completion of this thread's multi-writer flush."""
        yield from self._rpc(comp, category="barrier")
        state.flush_remaining -= 1
        if state.flush_remaining == 0:
            state.flush_gate.succeed()

    # ------------------------------------------------------------------
    # condition variables
    # ------------------------------------------------------------------
    def _cond(self, cond_id: int) -> _CondState:
        try:
            return self._conds[cond_id]
        except KeyError:
            raise SynchronizationError(f"unknown condition variable {cond_id}") from None

    def cond_register(self, tid: int, comp: str, cond_id: int):
        """Generator: enqueue the caller as a waiter *before* it releases the
        associated lock (callers must hold that lock, which rules out lost
        wakeups). Returns the event to wait on."""
        cond = self._cond(cond_id)
        yield from self._rpc(comp, category="cond")
        gate = self.engine.event(f"cond{cond_id}.wait")
        cond.waiters.append((tid, gate))
        return gate

    def cond_signal(self, tid: int, comp: str, cond_id: int, broadcast: bool = False):
        """Generator: wake one (or all) waiters."""
        cond = self._cond(cond_id)
        yield from self._rpc(comp, category="cond")
        count = len(cond.waiters) if broadcast else min(1, len(cond.waiters))
        for _ in range(count):
            _tid, gate = cond.waiters.popleft()
            gate.succeed()
        self.stats.counters["cond_signals"] += 1
        return count
