"""Batched protocol round trips: the fault, prefetch and eviction protocol.

A per-operation protocol model would charge one request message, one server
service slot and one reply transfer per cache line (and one recall round
trip per owned page, one diff put per evicted page). On the smoke
campaigns that shape is ~10^5 modeled round trips, almost all of them
single-line -- pure per-trip overhead, both simulated and in wall clock.

This module aggregates everything bound for the SAME home server within a
round into ONE modeled round trip with the timing law

    trip cost = alpha + beta * lines

where alpha is the fixed per-trip part (request latency + control-message
serialization + one ``memserver_service_time`` charge + reply latency) and
beta the per-line part (per-page wire serialization at the link bandwidth
+ one ``install_page_time`` per page), all under the *existing*
interconnect parameters -- no new constants are introduced, the law is
what a per-operation model charges minus the repeated alphas.

Three aggregations ride the same trip structure:

* **demand + speculation** -- a faulted span's missing lines AND the
  stride/adjacent predictor's targets fetch as one trip per home
  (:func:`fault_lines_batched`); speculative riders install with
  ``prefetched=True`` and stay out of demand accounting;
* **recalls** -- the home pulls ALL pages one owner holds with a single
  recall request and a single bulk diff return
  (``MemoryServer.serve_fetch_bulk`` / ``_recall_bulk``);
* **merges** -- eviction write-backs group per home into one diff put
  (:func:`flush_diffs_batched`); barrier/region merges already shipped
  per home (``system._apply_at_homes``) and are only *accounted* here.

Fault composition is inherited, not re-implemented: a batch is one
request message through the injector's retry loop and one dedup sequence
number at the receiver, so a dropped batch retries as a batch and a
duplicated batch is dropped whole.

Gray-failure resilience rides the same trips (``config.grayfail_armed``):
each per-home trip is raced against a hedge deadline -- the empirical
``hedge_quantile`` of that home's recent trip times, floored at the
timing law so a legitimately large batch is never hedged early -- and a
late trip issues ONE backup copy of the request to a live replica
(``MemoryServer.serve_fetch_hedged``), first reply wins, the loser's
reply is deduplicated on arrival. Shed (NACKed) requests back off under
the plan's retry policy while spending the destination's retry budget;
a dry budget opens that destination's circuit breaker and subsequent
trips route around it (replica serve, or degrade to the synchronous
per-page path, ``ComputeServer._fetch_pages``). All of it is unreachable
at the defaults.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import (
    CommunicationError,
    ReproError,
    recovery_action,
)
from repro.faults.plan import RetryPolicy
from repro.interconnect.scl import CONTROL_BYTES
from repro.memory.backing import payload_crc_ok
from repro.memory.pagetable import NO_PAGES
from repro.sim.engine import Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compute_server import ComputeServer

#: Trip-time samples a home must accumulate before hedging arms against
#: it -- an empirical quantile over fewer observations is noise. Low on
#: purpose: the quantile is floored at the timing law, so a thin window
#: can fire a premature hedge (wasted work) but never a wrong one.
HEDGE_MIN_SAMPLES = 4

#: Backoff schedule for shed (NACKed) requests when no fault plan is
#: armed to supply one (admission control works under pure contention).
_SHED_RETRY = RetryPolicy()


class RoundTripLedger:
    """Per-home accounting of modeled round trips (``stats_report``'s
    ``round_trips`` namespace).

    ``record`` is called once per *successful* trip with the trip's kind
    (``demand`` -- a fault batch, speculative riders included; ``speculative``
    -- a pure prefetch trip; ``recall`` -- one bulk owner recall; ``merge``
    -- one bulk diff ship) and the number of distinct cache lines it moved.
    """

    __slots__ = ("per_home", "hist", "trips", "lines")

    def __init__(self):
        #: {home index: Counter(kind -> trips)}
        self.per_home: dict[int, Counter] = {}
        #: Power-of-two lines-per-trip histogram: {bucket floor: trips}.
        self.hist: Counter = Counter()
        self.trips = 0
        self.lines = 0

    def record(self, home: int, kind: str, lines: int) -> None:
        per_kind = self.per_home.get(home)
        if per_kind is None:
            per_kind = self.per_home[home] = Counter()
        per_kind[kind] += 1
        self.trips += 1
        self.lines += lines
        self.hist[1 << max(lines, 1).bit_length() - 1] += 1

    def snapshot(self) -> dict:
        hist = {}
        for floor in sorted(self.hist):
            label = "1" if floor == 1 else f"{floor}-{2 * floor - 1}"
            hist[label] = self.hist[floor]
        return {
            "trips": self.trips,
            "lines": self.lines,
            "lines_per_trip_mean": (round(self.lines / self.trips, 2)
                                    if self.trips else 0.0),
            "lines_per_trip_hist": hist,
            "by_home": {str(home): dict(sorted(per_kind.items()))
                        for home, per_kind in sorted(self.per_home.items())},
        }


# ----------------------------------------------------------------------
# gray-failure machinery: timing-law floors, hedged trips, recovery
# ----------------------------------------------------------------------
def trip_timeout_floor(system, src: str, dst: str, n_pages: int) -> float:
    """The timing law's ``alpha + beta * lines`` lower bound for one bulk
    trip of ``n_pages`` pages.

    Sizes the sender's retransmit timer (and floors the hedge deadline):
    a clean reply to a k-page request cannot arrive before request
    latency + one service slot + the bulk data return + k installs, so a
    timer shorter than the law retransmits legitimately slow big batches
    (pinned by the satellite regression test).
    """
    config = system.config
    fabric = system.fabric
    return (fabric.path_time(src, dst, CONTROL_BYTES)
            + config.memserver_service_time
            + fabric.path_time(dst, src, n_pages * config.layout.page_bytes)
            + n_pages * config.install_page_time)


def recover(cs: "ComputeServer", server, err, backoffs: int = 0):
    """Generator: dispatch one retryable protocol error by its
    classification (the :mod:`repro.errors` taxonomy) and return the
    updated backoff count; fatal errors re-raise.

    * ``failover`` -- wait out the promotion, then let the caller
      re-resolve the home and retry;
    * ``refresh_epoch`` -- fenced by a newer view: re-read the membership
      epoch and re-issue;
    * ``backoff`` -- shed (NACKed) or declined: capped exponential delay
      under the plan's retry policy, then re-issue.

    Every dispatched failure also debits the destination's circuit
    breaker (when retry budgets are armed); the breaker tripping here is
    what routes the NEXT attempt around the gray destination.
    """
    system = cs.system
    action = recovery_action(err)
    if action is None:
        raise err
    guard = system.breaker_for(server.component)
    if guard is not None:
        opens = guard.opens
        guard.failure(cs.engine.now)
        if guard.opens > opens and system.membership is not None:
            system.membership.gray_suspect(server.component)
    if action == "failover":
        yield from system.await_failover(server.index, err,
                                         comp=cs.component)
    elif action == "refresh_epoch":
        cs.known_epoch = system.membership.epoch
        cs.stats.incr("epoch_refreshes")
    else:  # "backoff"
        backoffs += 1
        cs.stats.counters["shed_backoffs"] += 1
        injector = system.injector
        retry = injector.retry if injector is not None else _SHED_RETRY
        delay = retry.delay(backoffs)
        if not cs.engine.try_advance(delay):
            yield Timeout(delay)
    return backoffs


class _Race:
    """First-reply-wins coordination between a primary trip, its hedge
    deadline timer, and the hedge itself.

    Competitors run as daemon processes that append their tag to
    ``arrivals`` (and their outcome to ``results``/``errors``) and wake
    the single waiter. Nothing cancels mid-protocol: the loser keeps
    running to completion -- exactly like a real requester that cannot
    recall a request already on the wire -- and its reply is counted as
    deduplicated when it lands after the race was decided.
    """

    __slots__ = ("engine", "counters", "arrivals", "results", "errors",
                 "decided", "_taken", "_gate")

    def __init__(self, engine, counters):
        self.engine = engine
        self.counters = counters
        self.arrivals: list[str] = []
        self.results: dict = {}
        self.errors: dict = {}
        self.decided = False
        self._taken = 0
        self._gate = None

    def _arrive(self, tag: str) -> None:
        self.arrivals.append(tag)
        if self.decided and tag != "timeout":
            self.counters["hedge_replies_deduped"] += 1
        gate = self._gate
        if gate is not None:
            self._gate = None
            gate.succeed(tag)

    def runner(self, gen, tag: str):
        """Generator (daemon process body): run one competitor to the end."""
        try:
            self.results[tag] = yield from gen
        except ReproError as exc:
            # Stored, not raised: without its traceback, whose frames (this
            # one included) would tie the race and the error into a cycle.
            self.errors[tag] = exc.with_traceback(None)
        self._arrive(tag)

    def timer(self, delay: float):
        """Generator (daemon process body): the hedge deadline."""
        yield Timeout(delay)
        self._arrive("timeout")

    def wait(self):
        """Generator: the next arrival tag not yet consumed."""
        if self._taken >= len(self.arrivals):
            self._gate = self.engine.event("hedge.race")
            yield self._gate
        tag = self.arrivals[self._taken]
        self._taken += 1
        return tag


def _plain_trip(cs: "ComputeServer", tid: int, server, server_pages,
                nbytes: int, floor: float):
    """Generator: one request/bulk-serve/reply exchange against
    ``server``; returns ``(data, crcs)`` with the CRCs read synchronously
    at the serve, before any other serve overwrites them."""
    system = cs.system
    t = system.scl.send(cs.component, server.component,
                        category="fetch_req", timeout_floor=floor)
    if t is not None:
        yield from t
    data = yield from server.serve_fetch_bulk(tid, server_pages)
    crcs = server.last_serve_crcs
    t = system.fabric.transfer_inline(server.component, cs.component,
                                      nbytes, category="page")
    if t is not None:
        yield from t
    return data, crcs


def _hedge_leg(cs: "ComputeServer", tid: int, backup, primary, server_pages,
               nbytes: int, floor: float):
    """Generator: the backup copy of a late trip -- same wire shape as
    the primary leg, served by :meth:`MemoryServer.serve_fetch_hedged`
    (backup bytes + primary's unshipped-WAL replay)."""
    system = cs.system
    t = system.scl.send(cs.component, backup.component,
                        category="fetch_req", timeout_floor=floor)
    if t is not None:
        yield from t
    data = yield from backup.serve_fetch_hedged(tid, server_pages, primary)
    crcs = backup.last_serve_crcs
    t = system.fabric.transfer_inline(backup.component, cs.component,
                                      nbytes, category="page")
    if t is not None:
        yield from t
    return data, crcs


def _hedged_trip(cs: "ComputeServer", tid: int, home: int, server,
                 server_pages, nbytes: int, floor: float):
    """Generator: one per-home trip under the hedging policy.

    Issues the primary leg, arms a deadline at the *backup's* empirical
    ``hedge_quantile`` trip time (floored at the timing law), and on
    deadline expiry issues ONE hedge leg. The deadline deliberately comes
    from the backup's window, not the primary's: a gray primary poisons
    its own RTT history, so a self-referential quantile adapts to the
    slowness and never fires -- whereas "the backup would typically have
    answered by now" is exactly the signal that a hedge would pay off,
    and a slow *backup* raises the deadline so we never hedge toward a
    worse replica. First reply wins; returns ``(data, crcs, server)``
    where ``server`` is whichever replica actually served (CRC repairs
    must go against it). Raises only when every issued leg failed.
    """
    system = cs.system
    engine = cs.engine
    counters = cs.stats.counters
    est = system.trip_rtt
    config = system.config
    deadline = None
    backup = None
    if config.hedged_fetches:
        backup = system.hedge_backup(home, server.index, server_pages, tid)
        if backup is None:
            counters["hedges_ineligible"] += 1
        elif est.samples(backup.component) < HEDGE_MIN_SAMPLES:
            backup = None  # cold backup window: no basis for a deadline
        else:
            quantile = est.quantile(backup.component, config.hedge_quantile)
            law = trip_timeout_floor(system, cs.component, server.component,
                                     len(server_pages))
            deadline = quantile if quantile > law else law
    t0 = engine.now
    if backup is None:
        data, crcs = yield from _plain_trip(cs, tid, server, server_pages,
                                            nbytes, floor)
        est.observe(server.component, engine.now - t0)
        return data, crcs, server

    race = _Race(engine, counters)
    engine.process(race.runner(
        _plain_trip(cs, tid, server, server_pages, nbytes, floor),
        "primary"), name="hedge.primary", daemon=True)
    engine.process(race.timer(deadline), name="hedge.timer", daemon=True)
    pending = {"primary"}
    hedged = False
    t_hedge = 0.0
    while True:
        tag = yield from race.wait()
        if tag == "timeout":
            if not hedged:
                hedged = True
                t_hedge = engine.now
                pending.add("hedge")
                counters["hedges_issued"] += 1
                engine.process(race.runner(
                    _hedge_leg(cs, tid, backup, server, server_pages,
                               nbytes, floor),
                    "hedge"), name="hedge.backup", daemon=True)
            continue
        pending.discard(tag)
        if tag in race.results:
            winner = tag
            break
        if not pending:
            # Both legs failed: surface the primary's error (the hedge's
            # is usually a decline riding on the same root cause).
            error = race.errors.get("primary", race.errors[tag])
            race.errors.clear()
            try:
                raise error
            finally:
                del error  # the new traceback holds this frame: same cycle
    race.decided = True
    data, crcs = race.results[winner]
    if winner == "hedge":
        # Credit the hedge leg's own latency to the backup's window; the
        # race total says nothing about the primary (it never answered).
        est.observe(backup.component, engine.now - t_hedge)
        counters["hedges_won"] += 1
        return data, crcs, backup
    est.observe(server.component, engine.now - t0)
    if hedged:
        counters["hedges_lost"] += 1
    return data, crcs, server


def _home_trip(cs: "ComputeServer", tid: int, home: int,
               demand_pages: np.ndarray, server_pages: np.ndarray,
               protect: Iterable[int]):
    """Generator: land the bulk data for one home group, surviving gray
    failures -- slow primaries are hedged, shed (NACKed) requests back
    off under the retry budget, an open breaker routes around the
    primary entirely.

    ``server_pages`` is the request: the demand pages, then the
    speculative riders. Returns ``(data, snapshots)`` for the install leg,
    or None when an open breaker with no eligible replica degraded the
    group to the synchronous per-page path (which installed the demand
    pages itself; speculative riders are dropped, per-operation accounting
    applies).
    """
    system = cs.system
    engine = cs.engine
    counters = cs.stats.counters
    cache = system.cache_of(tid)
    inval_epoch = cache.inval_epoch
    epoch_get = inval_epoch.get
    resolve_home = system.directory.resolve_home
    nbytes = server_pages.size * cache.layout.page_bytes
    armed = system.injector is not None
    backoffs = 0
    while True:
        server = system.memory_servers[resolve_home(home)]
        floor = (trip_timeout_floor(system, cs.component, server.component,
                                    server_pages.size) if armed else 0.0)
        reroute = None
        guard = system.breaker_for(server.component)
        if guard is not None and not guard.allow(engine.now):
            reroute = system.hedge_backup(home, server.index, server_pages,
                                          tid)
            if reroute is None:
                counters["breaker_degraded"] += 1
                if demand_pages.size:
                    yield from cs._fetch_pages(tid, demand_pages.tolist(),
                                               protect)
                return None
            counters["breaker_reroutes"] += 1
        # No epochs recorded yet -> every snapshot would read 0; skip
        # building the dict and compare against 0 in _live instead.
        snapshots = ({p: epoch_get(p, 0) for p in server_pages.tolist()}
                     if inval_epoch else None)
        counters["fetch_requests"] += 1
        try:
            if reroute is not None:
                data, crcs = yield from _hedge_leg(
                    cs, tid, reroute, server, server_pages, nbytes, floor)
                server = reroute
            elif system.trip_rtt is not None:
                data, crcs, server = yield from _hedged_trip(
                    cs, tid, home, server, server_pages, nbytes, floor)
            else:
                data, crcs = yield from _plain_trip(
                    cs, tid, server, server_pages, nbytes, floor)
            if crcs is not None:
                for page in server_pages.tolist():
                    if payload_crc_ok(data.get(page), crcs.get(page)):
                        continue
                    counters["integrity_failures"] += 1
                    data[page] = yield from cs._repair_page(server, page)
                    counters["integrity_repairs"] += 1
        except CommunicationError as err:
            backoffs = yield from recover(cs, server, err, backoffs)
            continue
        if guard is not None:
            guard.success()
        return data, snapshots


def predict_lines(cs: "ComputeServer", tid: int, lines, speculate: bool):
    """The policy's predictions for a run of demand-missed lines, returned
    so they can ride the demand trip.

    The stride predictor observes every miss; ``speculate=False``
    (plan-executor misses, whose own look-ahead is authoritative about
    what comes next) trains it but predicts nothing.
    """
    policy = cs.system.config.prefetch
    # A batch already fetching more lines than the prefetch degree has
    # outrun anything the predictor could add: the only lines a prediction
    # would reach past such a batch are the ones BEYOND the faulted span --
    # measured on the Jacobi campaigns, those are the installs that cross
    # into other threads' partitions and get invalidated untouched. Train
    # on the batch, predict nothing.
    issue = speculate and len(lines) <= policy.degree
    mode = policy.mode
    if mode == "adjacent":
        return tuple(line + 1 for line in lines) if issue else ()
    if mode == "stride":
        cache = cs.system.cache_of(tid)
        cache_counters = cache.stats.counters
        pages_per_line = cache.layout.pages_per_line
        allocated_span = cs.system.allocator.allocated_span
        prefetcher = cs.prefetcher
        targets: tuple[int, ...] = ()
        for line in lines:
            # Streams are keyed by allocation so a kernel alternating
            # between arrays (src/dst sweeps) trains one clean stride per
            # array. Feed the whole run; the last observation's prediction
            # is the freshest, so only it is returned.
            span = allocated_span(line * pages_per_line)
            targets = prefetcher.observe(
                tid, line, cache_counters,
                stream_key=span[0] if span else None)
        return targets if issue else ()
    return ()


def speculative_pages(cs: "ComputeServer", tid: int, targets,
                      exclude: frozenset) -> np.ndarray:
    """Expand predicted lines to the missing pages a trip should carry
    (skipping in-flight lines and the demand batch's own lines), in
    prediction order.

    Pages another thread currently owns dirty are NOT speculated on:
    riders share the demand trip, so a guessed page would recall an
    active writer *synchronously* -- the faulting thread and the owner
    both stall for data the guess may never touch. (The async daemon
    path could hide that latency; a rider cannot.) Demand fetches still
    recall owners, as they must.
    """
    cache = cs.system.cache_of(tid)
    pending = cs.pending[tid]
    per_line = cache.layout.pages_per_line
    wanted = []
    # At most ``degree`` predictions; each line once, first mention first.
    for line in dict.fromkeys(targets):
        if line not in pending and line not in exclude:
            wanted.append(cs._allocated_only(
                cache.missing_in(line * per_line, (line + 1) * per_line)))
    if not wanted:
        return NO_PAGES
    pages = wanted[0] if len(wanted) == 1 else np.concatenate(wanted)
    return pages[cs.system.directory.owners_of(pages, but=tid) < 0]


def fault_lines_batched(cs: "ComputeServer", tid: int, missing: np.ndarray,
                        protect: Iterable[int], speculate: bool = True):
    """Generator: the batched fault path -- one fault-handler charge and
    one round trip per home server for the whole missed span, with the
    predictor's targets riding the same trips as speculative cargo.

    ``missing`` is the caller's residency scan, taken with no suspension
    since: the non-resident pages (ascending) of every line the faulted
    span touches. It is cut only at a line with a prefetch in flight: that
    prefetch is waited for, and the line and everything after it are
    scanned again (the wait may have filled them, or anything else).
    """
    cache = cs.system.cache_of(tid)
    layout = cache.layout
    pending = cs.pending[tid]
    counters = cs.stats.counters
    found = []  # non-resident pages, one piece per wait
    if pending:
        per_line = layout.pages_per_line
        lines = layout.lines_of(missing)
        for at, line in enumerate(lines):
            in_flight = pending.get(line)
            if in_flight is not None:
                found.append(missing[:missing.searchsorted(line * per_line)])
                counters["prefetch_waits"] += 1
                yield in_flight
                missing = cache.missing_in(line * per_line,
                                           (lines[-1] + 1) * per_line)
                missing = missing[np.isin(missing // per_line, lines[at:])]
    found.append(missing)
    demand = cs._allocated_only(
        found[0] if len(found) == 1 else np.concatenate(found))
    if not demand.size:
        return
    missed_lines = layout.lines_of(demand)
    counters["faults"] += len(missed_lines)
    spec = NO_PAGES
    targets = predict_lines(cs, tid, missed_lines, speculate)
    if targets:
        spec = speculative_pages(cs, tid, targets, frozenset(missed_lines))
    counters["batched_line_fetches"] += 1
    counters["batched_lines"] += len(missed_lines)
    if spec.size:
        counters["speculative_riders"] += spec.size
    config = cs.system.config
    if not cs.engine.try_advance(config.fault_handler_time):
        yield Timeout(config.fault_handler_time)
    yield from fetch_batched(cs, tid, demand, spec, protect)


def fetch_batched(cs: "ComputeServer", tid: int, demand: np.ndarray,
                  spec: np.ndarray, protect: Iterable[int]):
    """Generator: fetch demand + speculative pages (two page vectors), ONE
    round trip per home server (request message, bulk serve -- recalls
    included -- and one bulk data return; installs pay beta's per-page
    leg).

    Demand pages install like a demand fetch (may evict); speculative
    riders install with ``prefetched=True`` and never evict -- a full
    cache skips them.
    """
    cache = cs.system.cache_of(tid)
    pages = np.concatenate((demand, spec)) if spec.size else demand
    token = cache.begin_fetch(pages)
    try:
        yield from _fetch_batched_flight(cs, tid, demand, spec, pages,
                                         protect)
    finally:
        cache.end_fetch(token)


def _fetch_batched_flight(cs: "ComputeServer", tid: int, demand: np.ndarray,
                          spec: np.ndarray, pages: np.ndarray,
                          protect: Iterable[int]):
    """``pages`` is ``demand`` followed by ``spec`` (the whole request)."""
    system = cs.system
    cache = system.cache_of(tid)
    layout = cache.layout
    grouped: dict[int, tuple[np.ndarray, np.ndarray]]
    if system.config.n_memory_servers == 1:
        # Single home: skip the per-page home lookups entirely.
        grouped = {0: (demand, spec)} if pages.size else {}
    else:
        home_of_page = system.allocator.home_of_page
        homes_d = np.fromiter(map(home_of_page, demand.tolist()), np.int64,
                              demand.size)
        homes_s = np.fromiter(map(home_of_page, spec.tolist()), np.int64,
                              spec.size)
        grouped = {home: (demand[homes_d == home], spec[homes_s == home])
                   for home in {*homes_d.tolist(), *homes_s.tolist()}}

    inval_epoch = cache.inval_epoch
    epoch_get = inval_epoch.get
    install_time = system.config.install_page_time
    engine = cs.engine
    try_advance = engine.try_advance
    counters = cs.stats.counters
    ledger = system.rt_ledger
    # With hedging armed, a home group mixing owner-free and owned pages
    # splits into two sub-trips: the owner-free portion (speculative
    # riders are owner-free by construction) can be raced against a
    # backup replica, while the owned remainder must pay its recall at
    # the true home -- no backup can collect another thread's
    # uncollected dirty writes. Off, every group is one trip.
    split = system.trip_rtt is not None and system.config.hedged_fetches
    for home in sorted(grouped):
        subtrips = [grouped[home]]
        if split:
            demand_pages, spec_pages = grouped[home]
            free = system.directory.owners_of(demand_pages, but=tid) < 0
            if not free.all() and (free.any() or spec_pages.size):
                subtrips = [(demand_pages[free], spec_pages),
                            (demand_pages[~free], NO_PAGES)]
        for demand_pages, spec_pages in subtrips:
            server_pages = (
                pages if demand_pages is demand and spec_pages is spec
                else np.concatenate((demand_pages, spec_pages)))
            trip = yield from _home_trip(cs, tid, home, demand_pages,
                                         server_pages, protect)
            if trip is None:
                continue  # breaker degrade: the per-page path installed them
            data, snapshots = trip
            ledger.record(
                home, "demand" if demand_pages.size else "speculative",
                len(layout.lines_of(server_pages)))
            counters["pages_fetched"] += server_pages.size

            # The batched install leg: beta's per-page install cost is ONE
            # modeled charge of k * install_page_time for the whole group.
            # Installs apply in bulk after the charge; any suspension
            # (eviction for the demand leg, the charge itself not
            # advancing inline) re-validates against raced fills and
            # invalidation epochs before bytes land. Speculative riders never
            # evict: what the cache cannot hold is skipped, not made room
            # for.
            def _live(pages, snapshots=snapshots):
                if not pages.size:
                    return pages, 0
                live = cache.missing_among(pages)  # minus raced fills
                if snapshots is None and not inval_epoch:
                    return live, 0  # still no epochs anywhere
                fresh = [p for p in live.tolist()
                         if epoch_get(p, 0) == (0 if snapshots is None
                                                else snapshots[p])]
                return (np.array(fresh, dtype=np.int64),
                        live.size - len(fresh))

            stale = 0
            eligible_d = demand_pages
            eligible_s = spec_pages
            charged = False
            while True:
                eligible_d, dropped = _live(eligible_d)
                stale += dropped
                eligible_s, dropped = _live(eligible_s)
                stale += dropped
                need = eligible_d.size - cache.free_pages
                if need > 0:
                    yield from evict_batched(
                        cs, tid, need, {*protect, *server_pages.tolist()})
                    continue
                room = cache.free_pages - eligible_d.size
                if eligible_s.size > room:
                    keep = room if room > 0 else 0
                    counters["prefetch_skipped_full"] += \
                        eligible_s.size - keep
                    eligible_s = eligible_s[:keep]
                k = eligible_d.size + eligible_s.size
                if k and not charged:
                    charged = True
                    delay = k * install_time
                    if not try_advance(delay):
                        yield Timeout(delay)
                        continue  # suspended: re-validate before installing
                if eligible_d.size:
                    cache.install_many(eligible_d, data, prefetched=False)
                if eligible_s.size:
                    cache.install_many(eligible_s, data, prefetched=True)
                break
            if stale:
                counters["stale_fetch_dropped"] += stale


def evict_batched(cs: "ComputeServer", tid: int, count: int,
                  protect: Iterable[int]):
    """Generator: evict ``count`` pages; dirty victims' diffs ship as one
    merge trip per home server instead of one put per page."""
    system = cs.system
    cache = system.cache_of(tid)
    directory = system.directory
    victims = cache.choose_victims(count, protect=protect)
    diffs = []
    for page in victims:
        diff = cache.evict(page)
        if diff is not None and not diff.empty:
            diffs.append(diff)
        # Only the page's *owner* surrenders ownership on eviction;
        # evicting a clean bystander copy must not erase the record of
        # someone else's lazily-held dirty data.
        if directory.owner_of(page) == tid:
            directory.clear_owner(page)
        directory.remove_sharer(page, tid)
    if diffs:
        yield from flush_diffs_batched(cs, diffs)
    cs.stats.counters["evictions"] += len(victims)


def flush_diffs_batched(cs: "ComputeServer", diffs, category: str = "diff"):
    """Generator: write diffs back grouped per logical home -- one put
    (diff-scan lead fused, one scan per diff) + one bulk apply per home,
    retrying through failovers and fencing rejects as a unit."""
    system = cs.system
    config = system.config
    fencing = system.membership is not None
    ledger = system.rt_ledger
    line_of = config.layout.line_of_page
    resolve_home = system.directory.resolve_home
    by_home: dict[int, list] = {}
    if config.n_memory_servers == 1:
        diffs = list(diffs)
        if diffs:
            by_home[0] = diffs
    else:
        home_of_page = system.allocator.home_of_page
        for diff in diffs:
            by_home.setdefault(home_of_page(diff.page), []).append(diff)
    for home in sorted(by_home):
        group = by_home[home]
        wire = sum(d.wire_bytes for d in group)
        backoffs = 0
        while True:
            server = system.memory_servers[resolve_home(home)]
            guard = system.breaker_for(server.component)
            try:
                t = system.scl.rdma_put(
                    cs.component, server.component, wire, category=category,
                    lead=config.diff_scan_time * len(group))
                if t is not None:
                    yield from t
                yield from server.apply_diffs(
                    group, epoch=cs.known_epoch if fencing else None)
            except CommunicationError as err:
                # Failover, fencing reject or shed: dispatch on the
                # error's recovery classification, then re-issue.
                backoffs = yield from recover(cs, server, err, backoffs)
                continue
            if guard is not None:
                guard.success()
            break
        ledger.record(home, "merge", len({line_of(d.page) for d in group}))
