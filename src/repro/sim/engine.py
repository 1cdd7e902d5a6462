"""The discrete-event engine: virtual clock, event queue, process stepping.

Determinism: dispatch is ordered by ``(time, sequence)`` where the sequence
number increments on every schedule, so equal-time events run in schedule
order. Nothing in the engine consults wall-clock time or unseeded randomness,
which makes every simulation in this package exactly reproducible.

Pending work is bucketed by exact timestamp (*epoch-sliced*): one min-heap
of distinct epoch instants (a plain float column, so heap compares never
touch tuples) plus a dict mapping each instant to its slice of ``(fn, args)``
records in sequence order. Scheduling into an instant that is already
pending is an O(1) append -- no ``heappush`` -- which is what lets
independent components (per-cell barriers, transfers, heartbeat
probes) ride through quiet epochs without per-event heap churn. ``run()``
drains one epoch as a batch: a single pop surfaces the whole same-instant
slice.

A resumption whose outcome is already determined never enters the queue
(see :meth:`Engine._step`): ``_next_time`` -- the earliest
pending-undispatched instant (``inf`` when idle) -- is the O(1) peek those
fast paths test against, here and in :mod:`repro.interconnect.routing`.
The per-event heap this replaced lives on as the test oracle
``tests/sim/reference_engine.py``; ``tests/property/test_engine_equivalence.py``
pins the two to the same trajectory.
"""

from __future__ import annotations

import heapq
from math import inf
from types import GeneratorType

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import _PENDING, SimEvent

#: Finished-process compaction: once at least this many processes have
#: finished AND the dead outnumber the live, the process list is rebuilt
#: with only live entries so the deadlock scan and ``live_processes`` stop
#: iterating corpses on long campaigns.
_COMPACT_MIN_DEAD = 64


class Timeout:
    """Yield command: resume the process ``delay`` simulated seconds later."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = delay
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class AdvanceTo:
    """Yield command: resume at the *absolute* simulated time ``target``.

    The batched access-plan executor accumulates many per-operation delays
    with exactly the float rounding the per-access path produces
    (``t = fl(fl(t + d1) + d2) ...``) and then advances in one step. A
    relative ``Timeout`` cannot express that: ``fl(now + fl(d1 + d2))`` is
    not in general the same float as the sequential accumulation, and the
    golden metrics are pinned to the last ulp.
    """

    __slots__ = ("target", "value")

    def __init__(self, target: float, value=None):
        self.target = target
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AdvanceTo({self.target!r})"


#: What an operation that completed without blocking hands back in place
#: of a generator: ``yield from DONE`` yields nothing, so a caller written
#: for the blocking case needs no second spelling.
DONE = ()


class _Park:
    """Yield command: suspend, and queue nothing. Whoever was handed the
    process (:attr:`Engine.active`) resumes it, by calling or scheduling
    ``engine._step(proc, value, None)`` -- ``Resource.serve`` does, at the
    service completion of a request whose arrival was an engine callback,
    and the manager's continuations do, when a grant or directive lands."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "PARK"


PARK = _Park()


class Process:
    """A running generator coroutine.

    Completion is observable through :attr:`done_event`; yielding the process
    itself from another process joins it. The generator's ``return`` value
    becomes the join value; an uncaught exception fails the join (and, unless
    someone joins it, aborts the simulation when run() notices).

    ``on_exit``, if set, is called with the return value when the generator
    returns, in the step that finished it (how ``repro.runtime`` records a
    thread's result with no frame of its own around the kernel).
    """

    __slots__ = ("engine", "gen", "name", "daemon", "_done_event", "_outcome",
                 "_alive", "blocked_on", "on_exit")

    def __init__(self, engine, gen: GeneratorType, name: str, daemon: bool):
        if not isinstance(gen, GeneratorType):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self.engine = engine
        self.gen = gen
        self.name = name
        self.daemon = daemon
        #: The completion event is created lazily: most processes are never
        #: joined, and the event plus its name
        #: string were a measurable share of process-creation cost.
        self._done_event = None
        self._outcome = None
        self._alive = True
        self.blocked_on = None
        self.on_exit = None

    @property
    def done_event(self) -> SimEvent:
        ev = self._done_event
        if ev is None:
            ev = SimEvent(self.engine, name=f"{self.name}.done")
            self._done_event = ev
            outcome = self._outcome
            if outcome is not None:
                # Finished before anyone asked: materialize pre-triggered.
                value, exc = outcome
                if exc is None:
                    ev._value = value
                else:
                    ev._exc = exc
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"


class Engine:
    """The event loop: a virtual clock over an epoch-sliced queue.

    The queue is two columns: ``_times``, a min-heap of *distinct* pending
    instants (plain floats -- comparisons never touch tuples), and
    ``_buckets``, mapping each instant to its slice of ``(fn, args)``
    records. Sequence order within a bucket is append order (the sequence
    counter is globally monotonic), so a per-entry ``(time, seq)`` key is
    implied by bucket identity and position -- each record carries only the
    two object fields, and scheduling into an already-pending instant never
    touches the heap.

    ``run()`` drains one epoch per heap pop: the whole same-instant slice
    dispatches as a batch, with new same-instant work appended to the live
    slice mid-dispatch (exactly the order a ``(time, seq)`` heap produces).
    """

    variant = "epoch"

    def __init__(self):
        self.now: float = 0.0
        self._seq: int = 0
        self._coalesced: int = 0
        self._until: float = inf
        #: Earliest pending-undispatched instant (inf when idle): the O(1)
        #: peek every inline-advance fast path tests against, here and in
        #: the interconnect's inlined transfer advance.
        self._next_time: float = inf
        self._times: list[float] = []
        self._buckets: dict[float, list] = {}
        #: Epochs dispatched and the largest batch drained in one slice --
        #: the amortization the epoch queue buys (surfaced in stats_report).
        self.epochs_run: int = 0
        self.epoch_peak: int = 0
        self._procs: list[Process] = []
        #: The process being stepped: whom a primitive that parks its
        #: caller (``yield PARK``) must resume later.
        self.active: Process | None = None
        self._dead: int = 0
        self._failed: list[tuple[Process, BaseException]] = []

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        O(1) when the target instant is already pending (the common case:
        zero-delay resumptions, lockstep component wake-ups); one float
        heappush when the instant is new. Passing the callee's arguments
        explicitly (typically a bound method plus its operands) avoids
        allocating a closure per scheduled event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        t = self.now + delay
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [(fn, args)]
            heapq.heappush(self._times, t)
        else:
            bucket.append((fn, args))
        if t < self._next_time:
            self._next_time = t

    def schedule_at(self, t: float, fn, *args) -> None:
        """Run ``fn(*args)`` at the *absolute* instant ``t``: the callback
        counterpart of yielding :class:`AdvanceTo`, in the bucket slot (and
        with the sequence number) that parked resumption would have taken.
        Not ``schedule(t - now, ...)``: ``now + (t - now)`` is in general a
        different float from ``t``."""
        if t < self.now:
            raise SimulationError(f"cannot schedule into the past (t={t})")
        self._seq += 1
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [(fn, args)]
            heapq.heappush(self._times, t)
        else:
            bucket.append((fn, args))
        if t < self._next_time:
            self._next_time = t

    def try_advance(self, delay: float) -> bool:
        """Advance ``now`` by ``delay`` without queue traffic, if legal.

        Legal exactly when the next pending instant is *strictly* later than
        the target (an equal-time entry holds a smaller sequence number, so
        it must run first) and the run horizon is not crossed. In that case
        popping the would-be queue entry is the very next thing ``run()``
        would do, so skipping the push/pop is unobservable. Returns True if
        the clock moved; the caller falls back to yielding a Timeout.
        """
        if delay < 0:
            raise SimulationError(f"cannot advance into the past (delay={delay})")
        target = self.now + delay
        if self._next_time <= target or target > self._until:
            return False
        self.now = target
        self._coalesced += 1
        return True

    def try_advance_to(self, target: float) -> bool:
        """Absolute-time counterpart of :meth:`try_advance`."""
        if target < self.now:
            raise SimulationError(f"cannot advance into the past (target={target})")
        if self._next_time <= target or target > self._until:
            return False
        self.now = target
        self._coalesced += 1
        return True

    def clear_pending(self) -> None:
        """Drop all scheduled work (teardown aid; engine unusable after)."""
        self._times.clear()
        self._buckets.clear()
        self._next_time = inf
        self.active = None

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh un-triggered event bound to this engine."""
        return SimEvent(self, name=name)

    def process(self, gen: GeneratorType, name: str = "proc", daemon: bool = False) -> Process:
        """Register and start a generator as a process (first step at `now`)."""
        proc = Process(self, gen, name=name, daemon=daemon)
        self._procs.append(proc)
        self.schedule(0.0, self._step, proc, None, None)
        return proc

    def _resume_with_outcome(self, waiter: Process, event: SimEvent) -> None:
        """Deliver a triggered event to a waiting process."""
        if event._value is not _PENDING:
            self.schedule(0.0, self._step, waiter, event._value, None)
        else:
            self.schedule(0.0, self._step, waiter, None, event._exc)

    def schedule_each(self, fn, heads, *tail) -> None:
        """Run ``fn(head, *tail)`` for each of ``heads``, in order, at the
        current instant: the slots successive ``schedule(0.0, ...)`` calls
        would give them, with the slice looked up once for the lot (a
        barrier releases a whole party into one epoch)."""
        bucket = None
        for head in heads:
            self._seq += 1
            if bucket is None:
                # Nothing between here and the end of the loop can move
                # the clock or retire this slice.
                now = self.now
                bucket = self._buckets.get(now)
                if bucket is None:
                    bucket = self._buckets[now] = []
                    heapq.heappush(self._times, now)
                if now < self._next_time:
                    self._next_time = now
            bucket.append((fn, (head, *tail)))

    def _resume_waiters(self, waiters: list, event: SimEvent) -> None:
        """Deliver a triggered event to everything parked on it, in wait
        order: what :meth:`_resume_with_outcome` does for one waiter, for
        all of them in one :meth:`schedule_each`."""
        if event._value is not _PENDING:
            self.schedule_each(self._step, waiters, event._value, None)
        else:
            self.schedule_each(self._step, waiters, None, event._exc)

    # ------------------------------------------------------------------
    # process stepping
    # ------------------------------------------------------------------
    def _step(self, proc: Process, send_value, throw_exc) -> None:
        """Resume a process and keep stepping it while the outcome of each
        yield is already determined.

        Two fast paths keep such resumptions out of the queue:

        * ``Timeout`` / ``AdvanceTo``: when the next pending instant is
          strictly later than the target (and the run horizon is not
          crossed), the queued resumption would be the very next pop -- so
          advance the clock inline and continue the generator. Strictness
          matters: an equal-time entry has a smaller sequence number and
          must run first.
        * already-triggered ``SimEvent`` / finished ``Process``: deliver the
          outcome immediately instead of scheduling a zero-delay resumption,
          provided no entry is due at the current instant (it would have
          run before the zero-delay event).

        Everything else -- pending events, horizon-crossing or tied
        timeouts -- goes through the queue, so event ordering (and with it
        every simulated metric) is the one a queue-everything engine
        produces; only the number of queue transits differs.
        """
        if not proc._alive:
            raise SimulationError(f"stepping finished process {proc.name}")
        self.active = proc
        gen = proc.gen
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
            if ctype is Timeout:  # exact: Timeout is never subclassed
                target = self.now + command.delay
            elif ctype is AdvanceTo:
                target = command.target
                if target < self.now:  # pragma: no cover - executor guards
                    raise SimulationError(
                        f"cannot advance into the past (target={target})")
            else:
                if ctype is SimEvent:  # the plain gate, by far the commonest
                    event = command
                elif command is PARK:
                    return  # its resumption is in someone else's hands
                elif isinstance(command, Process):
                    event = command.done_event
                elif isinstance(command, SimEvent):
                    event = command
                else:
                    exc = SimulationError(
                        f"process {proc.name} yielded {command!r}; "
                        f"expected Timeout, SimEvent or Process")
                    self.schedule(0.0, self._step, proc, None, exc)
                    return
                if event._value is _PENDING and event._exc is None:
                    proc.blocked_on = event
                    event._waiters.append(proc)
                    return
                if not self._next_time <= self.now:
                    self._coalesced += 1
                    if event._exc is None:
                        send_value = event._value
                    else:
                        send_value = None
                        throw_exc = event._exc
                    continue
                # Triggered, but an entry is due at this very instant and
                # runs first: the zero-delay resumption queues behind it.
                proc.blocked_on = event
                self._resume_with_outcome(proc, event)
                return
            if target <= self._until and not self._next_time <= target:
                self.now = target
                self._coalesced += 1
                send_value = command.value
                continue
            # Park the resumption in its epoch bucket (seq order = append
            # order).
            self._seq += 1
            bucket = self._buckets.get(target)
            if bucket is None:
                self._buckets[target] = [(self._step,
                                          (proc, command.value, None))]
                heapq.heappush(self._times, target)
            else:
                bucket.append((self._step, (proc, command.value, None)))
            if target < self._next_time:
                self._next_time = target
            return

    def _finish(self, proc: Process, value, exc) -> None:
        proc._alive = False
        ev = proc._done_event
        if exc is None:
            proc._outcome = (value, None)
            if proc.on_exit is not None:
                proc.on_exit(value)
            if ev is not None:
                ev.succeed(value)
        else:
            proc._outcome = (None, exc)
            if ev is not None and ev._waiters:
                ev.fail(exc)
            else:
                # Nobody is joining this process: surface the failure loudly
                # instead of letting it vanish.
                self._failed.append((proc, exc))
                if ev is not None:
                    ev.fail(exc)
        # Compact finished processes so long campaigns (millions of
        # short-lived transfers) don't grow _procs
        # without bound -- the deadlock scan and live_processes would
        # otherwise iterate every corpse ever spawned.
        dead = self._dead + 1
        if dead >= _COMPACT_MIN_DEAD and dead * 2 >= len(self._procs):
            self._procs = [p for p in self._procs if p._alive]
            self._dead = 0
        else:
            self._dead = dead

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: float = inf) -> float:
        """Advance the simulation until the queue drains or `until` is hit.

        One heap pop surfaces a whole epoch: every record at that instant
        dispatches in sequence order from the bucket list, including records
        appended *during* the slice by the handlers themselves (a zero-delay
        schedule lands at the live instant and runs in turn). ``_next_time``
        is advanced to the next epoch just before the final record of the
        slice runs -- the record that is, by identity, the bucket's last --
        so the inline-advance peeks inside that record see the next epoch,
        not the one being drained. A record that appends to its own slice
        is no longer last, and the appended record sees ``_next_time ==
        now`` until it is.

        Raises :class:`DeadlockError` if non-daemon processes remain blocked
        with no scheduled work, and re-raises the first unhandled process
        exception.
        """
        times = self._times
        buckets = self._buckets
        failed = self._failed
        heappop = heapq.heappop
        # The inline-advance fast path must never carry `now` past the run
        # horizon (the resumption would then have to wait in the queue,
        # where the `t > until` check below can see it).
        self._until = until
        try:
            while times:
                t = times[0]
                if t > until:
                    self.now = until
                    self._raise_failures()
                    return self.now
                heappop(times)
                if t < self.now:  # pragma: no cover - guarded by schedule()
                    raise SimulationError("event queue went backwards in time")
                self.now = t
                bucket = buckets[t]
                self.epochs_run += 1
                i = 0
                try:
                    # The list iterator sees records appended mid-slice.
                    for rec in bucket:
                        i += 1
                        if rec is bucket[-1]:
                            # Last known record of the slice (every record
                            # is a fresh tuple): future peeks must see the
                            # next epoch.
                            self._next_time = times[0] if times else inf
                        fn, args = rec
                        fn(*args)
                        if failed:
                            self._raise_failures()
                    if i > self.epoch_peak:
                        self.epoch_peak = i
                except BaseException:
                    if i < len(bucket):
                        # Abnormal exit mid-slice: keep the undispatched
                        # tail queued so a caller that catches the error
                        # still observes it as pending.
                        del bucket[:i]
                        heapq.heappush(times, t)
                        self._next_time = times[0]
                    else:
                        del buckets[t]
                    raise
                del buckets[t]
            blocked = [p for p in self._procs if p._alive and not p.daemon]
            if blocked:
                raise DeadlockError(blocked, now=self.now,
                                    reasons=self._wait_reasons(blocked))
            return self.now
        finally:
            self._until = inf

    @staticmethod
    def _wait_reasons(blocked) -> dict:
        """``{process name: what it waits on}`` for deadlock diagnostics."""
        reasons = {}
        for proc in blocked:
            event = proc.blocked_on
            if event is None:
                reasons[proc.name] = "<not waiting on any event>"
            else:
                reasons[proc.name] = getattr(event, "name", "") or repr(event)
        return reasons

    def _raise_failures(self) -> None:
        if self._failed:
            proc, exc = self._failed[0]
            raise SimulationError(f"process {proc.name} failed: {exc!r}") from exc

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def scheduled_events(self) -> int:
        """Total events scheduled so far (the sequence counter)."""
        return self._seq

    @property
    def coalesced_events(self) -> int:
        """Resumptions that skipped the queue via the fast paths in
        :meth:`_step` / :meth:`try_advance`."""
        return self._coalesced

    @property
    def live_processes(self) -> list[Process]:
        return [p for p in self._procs if p._alive]

    def pending_epochs(self):
        """Sorted ndarray of pending epoch instants (introspection aid)."""
        import numpy as np

        return np.sort(np.array(self._times, dtype=np.float64))
