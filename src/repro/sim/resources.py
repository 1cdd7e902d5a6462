"""Engine-level blocking primitives: mutex, barrier, and a capacity-limited
server resource.

These are *simulation* primitives (used to model contention inside simulated
hardware and inside the Pthreads baseline); the DSM's own locks and barriers
are implemented at the protocol level in :mod:`repro.core.manager` because
they must also perform memory-consistency work.

All acquire-style operations are generators: call them with ``yield from``.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError, SynchronizationError
from repro.sim.engine import PARK, Engine, Timeout
from repro.sim.events import SimEvent


class SimMutex:
    """FIFO mutual-exclusion lock between simulated processes."""

    def __init__(self, engine: Engine, name: str = "mutex"):
        self.engine = engine
        self.name = name
        self.owner = None
        self._waiters: deque = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    def acquire(self, who=None):
        """Generator: blocks until the lock is held by ``who``."""
        who = who if who is not None else object()
        if self.owner is None:
            self.owner = who
        else:
            self.contended_acquisitions += 1
            gate = self.engine.event(f"{self.name}.wait")
            self._waiters.append((who, gate))
            yield gate
            if self.owner is not who:  # pragma: no cover - invariant guard
                raise SimulationError(f"{self.name}: woke without ownership")
        self.acquisitions += 1
        return who

    def release(self, who=None) -> None:
        if self.owner is None:
            raise SynchronizationError(f"{self.name}: release of unheld mutex")
        if who is not None and self.owner is not who:
            raise SynchronizationError(f"{self.name}: release by non-owner")
        if self._waiters:
            next_who, gate = self._waiters.popleft()
            self.owner = next_who
            gate.succeed(next_who)
        else:
            self.owner = None

    @property
    def locked(self) -> bool:
        return self.owner is not None


class SimBarrier:
    """Reusable barrier for a fixed party count."""

    def __init__(self, engine: Engine, parties: int, name: str = "barrier"):
        if parties < 1:
            raise SimulationError("barrier needs at least one party")
        self.engine = engine
        self.parties = parties
        self.name = name
        self._count = 0
        self._generation = 0
        self._gate = engine.event(f"{name}.gen0")
        self.waits = 0

    def wait(self):
        """Generator: blocks until ``parties`` processes have arrived.

        Returns the arrival index within the generation (0 for the first
        arriver, ``parties - 1`` for the releasing arrival).
        """
        self.waits += 1
        index = self._count
        self._count += 1
        if self._count == self.parties:
            gate = self._gate
            self._generation += 1
            self._count = 0
            self._gate = self.engine.event(f"{self.name}.gen{self._generation}")
            gate.succeed()
            # The releasing party does not block, but must still yield once so
            # that barrier semantics cost a scheduling point for everyone.
            yield Timeout(0.0)
        else:
            yield self._gate
        return index


class Resource:
    """A server with ``capacity`` identical units; models queueing delay.

    ``yield from res.use(duration)`` charges queueing + service time, which is
    how manager and memory-server contention is modelled.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "res"):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._wait_name = f"{name}.wait"
        self._in_use = 0
        self._waiters: deque = deque()
        self.total_requests = 0
        self.total_busy_time = 0.0
        self.total_queue_time = 0.0

    def request(self):
        """Generator: blocks until a unit is free (FIFO)."""
        self.total_requests += 1
        engine = self.engine
        t0 = engine.now
        if self._in_use < self.capacity:
            self._in_use += 1
        else:
            gate = SimEvent(engine, name=self._wait_name)
            self._waiters.append(gate)
            yield gate
        self.total_queue_time += engine.now - t0
        return self

    def release(self, busy: float = 0.0) -> None:
        """Free the unit (handing it to the next waiter, if any), booking
        ``busy`` seconds of service to :attr:`total_busy_time`."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without request")
        self.total_busy_time += busy
        if self._waiters:
            # Hand the unit straight to the next waiter.
            nxt = self._waiters.popleft()
            if type(nxt) is tuple:
                # Timed hand-off (arrive): the waiter's next act would be
                # sleeping through its service time, so resume it directly
                # at the completion instant -- fl(now + duration) is the
                # same float the grant-then-sleep path computes -- and book
                # its queueing delay here, at the grant, where
                # ``request()`` books it.
                duration, t0, fn, args = nxt
                self.total_queue_time += self.engine.now - t0
                self.engine.schedule(duration, fn, *args)
            else:
                nxt.succeed()
        else:
            self._in_use -= 1

    def arrive(self, duration: float, fn, args, parked: bool = True) -> bool:
        """One request reaches the server at ``engine.now``: take a free
        unit and sleep through ``duration`` of service, or queue FIFO for
        :meth:`release` to grant; ``fn(*args)`` resumes whoever sent it, at
        service completion, the unit held.

        The one arrival routine: called by :meth:`serve` for a requester
        standing at the server (``parked=False``), the engine callback of a
        request still in flight, and a continuation taking a unit for a
        parked caller (``Manager._respond``). Returns True when the unit is
        held and the clock already stands at the service completion (a
        parked requester is resumed from here). Otherwise the resumption is
        queued exactly where a process yielding ``Timeout(duration)`` (free
        unit) or a private gate (busy) would have left it: grant order,
        queue-time booking and the engine's own counters cannot tell the
        difference.
        """
        engine = self.engine
        self.total_requests += 1
        if self._in_use >= self.capacity:
            self._waiters.append((duration, engine.now, fn, args))
            return False
        self._in_use += 1
        if not engine.try_advance(duration):
            engine.schedule(duration, fn, *args)
            return False
        if parked:
            fn(*args)
        return True

    def serve(self, duration: float, at: float | None, fn, *args) -> bool:
        """FIFO-acquire a unit and hold it through ``duration`` of service,
        for a request that reaches the server at the absolute instant
        ``at`` (``SCL.flight``; None: it is here now).

        True: it all happened inline -- the clock stands at the service
        completion and the caller goes on, unit held. False: the caller
        must suspend (``yield PARK``), and ``fn(*args)`` runs at the service
        completion, unit held, in the bucket slots of a process that woke
        for the arrival (``yield AdvanceTo(at)``) and slept through its
        service.
        """
        engine = self.engine
        if at is not None and not engine.try_advance_to(at):
            engine.schedule_at(at, self.arrive, duration, fn, args)
        elif self.arrive(duration, fn, args, False):
            return True
        engine.active.blocked_on = self  # what a deadlock report names
        return False

    def request_service(self, duration: float, at: float | None = None):
        """Generator: :meth:`serve` for a process -- the universal prologue
        of every server handler. Equivalent to ``request()`` followed by
        ``yield Timeout(duration)``, but the process is resumed once, at
        its service-completion instant. The unit stays held; the caller
        must ``release()``."""
        engine = self.engine
        if not self.serve(duration, at, engine._step, engine.active, None,
                          None):
            yield PARK
        return self

    def use(self, duration: float, at: float | None = None):
        """Generator: request, hold for ``duration``, release."""
        engine = self.engine
        if not self.serve(duration, at, engine._step, engine.active, None,
                          None):
            yield PARK
        self.release(duration)
