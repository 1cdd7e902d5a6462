"""Reference event queue: the per-event heap the epoch-sliced engine replaced.

A test oracle, not a shipped path. :class:`ReferenceEngine` subclasses the
shipped :class:`~repro.sim.engine.Engine` and overrides only the queue
methods (``schedule*``, ``try_advance*``, ``_step``, ``run``,
``clear_pending``): pending work is one heap of ``(time, seq, fn, args)``
tuples, the textbook shape whose dispatch order -- ``(time, seq)`` -- is the
definition the epoch buckets must reproduce.

``coalesce`` exists only here. ``True`` applies the same inline-advance rule
as the shipped engine, so the two must agree on every ``(now, seq,
coalesced)`` observation; ``False`` sends every resumption through the heap,
the queue-everything behaviour the fast paths claim to be indistinguishable
from in simulated time.

:class:`ReferenceResource` is the oracle of the fused request leg
(``Resource.use(duration, at=...)``): the server as it was when every wait
was a yield the engine queued -- the sender wakes for its arrival
(``yield AdvanceTo(at)``), then sleeps through its service or parks on a
private gate -- with no ``PARK``, no ``schedule_at`` and no arrival callback.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import PARK, AdvanceTo, Engine, Process, Timeout
from repro.sim.events import _PENDING, SimEvent


class ReferenceEngine(Engine):
    def __init__(self, coalesce: bool = True):
        super().__init__()
        self.coalesce = coalesce
        self._heap: list = []

    def schedule(self, delay: float, fn, *args) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        t = self.now + delay
        heapq.heappush(self._heap, (t, self._seq, fn, args))
        if t < self._next_time:
            self._next_time = t

    def schedule_at(self, t: float, fn, *args) -> None:
        if t < self.now:
            raise SimulationError(f"cannot schedule into the past (t={t})")
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn, args))
        if t < self._next_time:
            self._next_time = t

    def schedule_each(self, fn, heads, *tail) -> None:
        for head in heads:
            self.schedule(0.0, fn, head, *tail)

    def try_advance(self, delay: float) -> bool:
        if delay < 0:
            raise SimulationError(f"cannot advance into the past (delay={delay})")
        return self.coalesce and super().try_advance(delay)

    def try_advance_to(self, target: float) -> bool:
        return self.coalesce and super().try_advance_to(target)

    def clear_pending(self) -> None:
        self._heap.clear()
        self._next_time = inf

    def _step(self, proc: Process, send_value, throw_exc) -> None:
        if not proc._alive:
            raise SimulationError(f"stepping finished process {proc.name}")
        self.active = proc
        gen = proc.gen
        coalesce = self.coalesce
        while True:
            proc.blocked_on = None
            try:
                if throw_exc is not None:
                    exc, throw_exc = throw_exc, None
                    command = gen.throw(exc)
                else:
                    command = gen.send(send_value)
            except StopIteration as stop:
                self._finish(proc, stop.value, None)
                return
            except BaseException as exc:  # noqa: BLE001 - deliberately catch all
                self._finish(proc, None, exc)
                return
            ctype = type(command)
            if ctype is Timeout:
                target = self.now + command.delay
            elif ctype is AdvanceTo:
                target = command.target
            else:
                if command is PARK:
                    return
                if isinstance(command, Process):
                    event = command.done_event
                elif isinstance(command, SimEvent):
                    event = command
                else:
                    exc = SimulationError(
                        f"process {proc.name} yielded {command!r}; "
                        f"expected Timeout, SimEvent or Process")
                    self.schedule(0.0, self._step, proc, None, exc)
                    return
                if (coalesce
                        and (event._value is not _PENDING or event._exc is not None)
                        and not self._next_time <= self.now):
                    self._coalesced += 1
                    if event._exc is None:
                        send_value = event._value
                    else:
                        send_value = None
                        throw_exc = event._exc
                    continue
                proc.blocked_on = event
                if event._value is not _PENDING or event._exc is not None:
                    self._resume_with_outcome(proc, event)
                else:
                    event._waiters.append(proc)
                return
            if (coalesce and target <= self._until
                    and not self._next_time <= target):
                self.now = target
                self._coalesced += 1
                send_value = command.value
                continue
            self._seq += 1
            heapq.heappush(self._heap, (target, self._seq, self._step,
                                        (proc, command.value, None)))
            if target < self._next_time:
                self._next_time = target
            return

    def run(self, until: float = inf) -> float:
        heap = self._heap
        self._until = until
        try:
            while True:
                while heap:
                    entry = heap[0]
                    time = entry[0]
                    if time > until:
                        self.now = until
                        self._raise_failures()
                        return self.now
                    heapq.heappop(heap)
                    self._next_time = heap[0][0] if heap else inf
                    self.now = time
                    entry[2](*entry[3])
                    if self._failed:
                        self._raise_failures()
                blocked = [p for p in self._procs if p._alive and not p.daemon]
                if not blocked:
                    return self.now
                if not any(hook(blocked) for hook in self.deadlock_hooks):
                    raise DeadlockError(blocked, now=self.now,
                                        reasons=self._wait_reasons(blocked))
        finally:
            self._until = inf


class ReferenceResource:
    """``capacity`` units behind one FIFO queue; ``use`` yields only
    ``Timeout`` and ``SimEvent``."""

    def __init__(self, engine: Engine, capacity: int = 1):
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque = deque()
        self.total_requests = 0
        self.total_busy_time = 0.0
        self.total_queue_time = 0.0

    def use(self, duration: float):
        engine = self.engine
        self.total_requests += 1
        if self._in_use < self.capacity:
            self._in_use += 1
            if not engine.try_advance(duration):
                yield Timeout(duration)
        else:
            gate = SimEvent(engine, name="ref.wait")
            self._waiters.append((gate, duration, engine.now))
            yield gate
        self.total_busy_time += duration
        self.release()

    def release(self) -> None:
        if not self._waiters:
            self._in_use -= 1
            return
        # Timed hand-off: the unit passes to the next waiter, whose
        # resumption is scheduled straight at its service completion.
        gate, duration, t0 = self._waiters.popleft()
        engine = self.engine
        self.total_queue_time += engine.now - t0
        gate._value = None
        (proc,), gate._waiters = gate._waiters, []
        engine.schedule(duration, engine._step, proc, None, None)
