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
serialization + one ``MEMSERVER_SERVICE_TIME`` charge + reply latency) and
beta the per-line part (per-page wire serialization at the link bandwidth
+ one ``INSTALL_PAGE_TIME`` per page), all under the *existing*
interconnect parameters -- no new constants are introduced, the law is
what a per-operation model charges minus the repeated alphas.

Three aggregations ride the same trip structure:

* **demand + anticipation** -- a faulted span's missing lines AND the
  adjacent line of each (the paper's anticipatory paging) fetch as one
  trip per home (:func:`fault_lines_batched`), the trips to different
  homes in flight together (:func:`fetch_batched`); the riders install
  with ``prefetched=True`` and stay out of demand accounting;
* **recalls** -- the home pulls ALL pages one owner holds with a single
  recall request and a single bulk diff return
  (``MemoryServer.serve_fetch_bulk`` / ``_recall_bulk``);
* **merges** -- eviction write-backs, barrier flushes and region
  write-throughs all group per home into one diff put
  (:func:`flush_diffs_batched`).

Fault composition is inherited, not re-implemented: a batch is one
request message through the injector's retry loop, so a dropped batch
retries as a batch and a duplicated batch costs one more wire crossing
while its handler runs once.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.params import (
    DIFF_SCAN_TIME,
    FAULT_HANDLER_TIME,
    INSTALL_PAGE_TIME,
    MEMSERVER_SERVICE_TIME,
)
from repro.errors import CommunicationError, MemoryError_, recovery_action
from repro.interconnect.scl import CONTROL_BYTES
from repro.memory.pagetable import NO_PAGES
from repro.sim.engine import Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compute_server import ComputeServer
    from repro.sim.engine import Process


class RoundTripLedger:
    """Per-home accounting of modeled round trips (``stats_report``'s
    ``round_trips`` namespace).

    ``record`` is called once per *successful* trip with the trip's kind
    (``demand`` -- a fault batch, adjacent-line riders included;
    ``speculative`` -- a trip of riders only, to a home none of the batch's
    demand pages has (striped allocations home neighbouring lines apart);
    ``recall`` -- one bulk owner recall; ``merge``
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
        self.hist[1 if lines < 2 else 1 << lines.bit_length() - 1] += 1

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
# fault handling: the retransmit-timer floor and error recovery
# ----------------------------------------------------------------------
def trip_timeout_floor(system, src: str, dst: str, n_pages: int) -> float:
    """The timing law's ``alpha + beta * lines`` lower bound for one bulk
    trip of ``n_pages`` pages.

    Sizes the sender's retransmit timer: a clean reply to a k-page
    request cannot arrive before request latency + one service slot + the
    bulk data return + k installs, so a timer shorter than the law
    retransmits legitimately slow big batches (pinned by
    ``TestNoSpuriousRetransmits``).
    """
    config = system.config
    fabric = system.fabric
    return (fabric.path_time(src, dst, CONTROL_BYTES)
            + MEMSERVER_SERVICE_TIME
            + fabric.path_time(dst, src, n_pages * config.layout.page_bytes)
            + n_pages * INSTALL_PAGE_TIME)


def recover(cs: "ComputeServer", server, err, backoffs: int = 0):
    """Generator: dispatch one retryable protocol error by its
    classification (the :mod:`repro.errors` taxonomy) and return the
    updated backoff count; fatal errors re-raise.

    * ``failover`` -- wait out the promotion, then let the caller
      re-resolve the home and retry; a build without the resilience layer
      has nothing to fail over to and re-raises;
    * ``backoff`` -- capped exponential delay under the plan's retry
      policy, then re-issue.
    """
    system = cs.system
    action = recovery_action(err)
    if action is None:
        raise err
    if action == "failover":
        if system.resilience is None:
            raise err
        yield from system.resilience.await_failover(server.index, err)
    else:  # "backoff"
        backoffs += 1
        cs.stats.counters["retry_backoffs"] += 1
        delay = system.injector.retry.delay(backoffs)
        if not cs.engine.try_advance(delay):
            yield Timeout(delay)
    return backoffs


#: The most demand-missed lines a fault batch may have and still carry
#: riders. A batch fetching more has outrun the prediction: the only lines
#: it would reach past such a batch are the ones BEYOND the faulted span --
#: measured on the Jacobi campaigns, those are the installs that cross into
#: other threads' row blocks and get invalidated untouched.
PREFETCH_DEGREE = 2


def speculative_pages(cs: "ComputeServer", tid: int, targets,
                      exclude) -> np.ndarray:
    """Expand predicted lines to the missing pages a trip should carry
    (skipping the demand batch's own lines), in prediction order.

    Pages another thread currently owns dirty are NOT speculated on:
    riders share the demand trip, so a guessed page would recall an
    active writer *synchronously* -- the faulting thread and the owner
    both stall for data the guess may never touch. Demand fetches still
    recall owners, as they must.
    """
    cache = cs.caches[tid]
    per_line = cache.layout.pages_per_line
    wanted = []
    for line in targets:  # distinct: one per distinct demand line
        if line not in exclude:
            first = line * per_line
            wanted.append(cs._allocated_only(
                cache.missing_in(first, first + per_line), first,
                first + per_line))
    if not wanted:
        return NO_PAGES
    pages = wanted[0] if len(wanted) == 1 else np.concatenate(wanted)
    return pages[cs.system.directory.owners_of(pages, but=tid) < 0]


def fault_lines_batched(cs: "ComputeServer", tid: int, missing: np.ndarray,
                        first: int, stop: int):
    """The batched fault's cargo, ``(demand, spec, lines)``: the allocated
    pages of ``missing``, the riders of the adjacent lines
    (``SamhitaConfig.prefetch``) and the distinct lines of both, counted
    once for the fault counters and the trip's ledger record.

    ``missing`` is the residency scan of ``[first, stop)``, the lines the
    faulted span touches, taken with no suspension since. The caller
    faults only a span that lacks a page, so when none of them is
    allocated the span reaches outside every allocation.
    """
    layout = cs.caches[tid].layout
    demand = cs._allocated_only(missing, first, stop)
    if not demand.size:
        raise MemoryError_(
            f"thread {tid} accessed unallocated page "
            f"{missing.item(0) * layout.page_bytes:#x}")
    missed_lines = layout.lines_of(demand)
    lines = len(missed_lines)
    counters = cs.stats.counters
    counters["faults"] += lines
    spec = NO_PAGES
    if cs.system.config.prefetch and lines <= PREFETCH_DEGREE:
        spec = speculative_pages(cs, tid, [line + 1 for line in missed_lines],
                                 missed_lines)
    counters["batched_line_fetches"] += 1
    counters["batched_lines"] += len(missed_lines)
    if spec.size:
        counters["speculative_riders"] += spec.size
        lines += len(layout.lines_of(spec))
    return demand, spec, lines


def fetch_batched(cs: "ComputeServer", tid: int, demand: np.ndarray,
                  spec: np.ndarray, protect: Iterable[int],
                  home: int | None = None, after: "Process | None" = None,
                  access: tuple[int, int] | None = None, attempt: int = 0):
    """Generator: fetch demand + speculative pages (two page vectors), ONE
    round trip per home server (request message, bulk serve -- recalls
    included -- and one bulk data return; installs pay beta's per-page
    leg).

    Demand pages install like a demand fetch (may evict); speculative
    riders install with ``prefetched=True`` and never evict -- a full
    cache skips them. One home's share of a fetch is one frame of this
    generator: every suspension of its trip (request, serve, reply,
    recovery, eviction, install charge) resumes that frame. A
    fetch that spans k homes forks: the faulting thread starts every
    other home's share as an engine process running this same path
    (``home``) and runs the last home's share itself, so all k trips fly
    together. The installs stay serial -- they are the thread's own CPU
    work -- so each share installs only after the previous share's
    process has finished (``after``), and the thread's own share joins
    the chain last. The fault costs its slowest home's trip plus its
    installs, not the sum of its trips.

    ``access``: the ``(addr, nbytes)`` of a fault, whose frame this is:
    it scans for its cargo (:func:`fault_lines_batched`) and charges the
    handler first, and faults again (``attempt``, at most 64) should an
    invalidation take a page of the span back before it ends.
    """
    system = cs.system
    cache = cs.caches[tid]
    layout = cache.layout
    spawned = home is not None
    lines = None  # the trip's distinct lines, where already counted
    if access is not None:
        addr, span_bytes = access
        protect = layout.pages_spanning(addr, span_bytes)
        per_line = layout.pages_per_line
        first = protect.start - protect.start % per_line
        stop = protect.stop + -protect.stop % per_line
        demand, spec, lines = fault_lines_batched(
            cs, tid, cache.missing_in(first, stop), first, stop)
        if not cs.engine.try_advance(FAULT_HANDLER_TIME):
            yield Timeout(FAULT_HANDLER_TIME)
    if not spawned:
        home = 0
        if system.config.n_memory_servers > 1:
            homes_of = system.allocator.homes_of
            homes_d = np.array(homes_of(demand.tolist()), dtype=np.int64)
            homes_s = np.array(homes_of(spec.tolist()), dtype=np.int64)
            homes = sorted({*homes_d.tolist(), *homes_s.tolist()}) or [0]
            home = homes.pop()  # this frame's share: the last home's
            for other in homes:
                after = cs.engine.process(fetch_batched(
                    cs, tid, demand[homes_d == other],
                    spec[homes_s == other], protect, other, after),
                    name=f"t{tid}.fetch{other}")
            if homes:
                demand = demand[homes_d == home]
                spec = spec[homes_s == home]
                lines = None
    # The request: the demand pages, then the speculative riders.
    pages = np.concatenate((demand, spec)) if spec.size else demand
    if not pages.size:
        return
    scl = system.scl
    comp = cs.component
    resolve_home = system.directory.resolve_home
    armed = system.injector is not None
    inval_epoch = cache.inval_epoch
    epoch_get = inval_epoch.get
    counters = cs.stats.counters
    nbytes = pages.size * layout.page_bytes
    listed = pages.tolist()
    token = cache.begin_fetch(pages)
    try:
        backoffs = 0
        while True:  # the trip, re-issued after ``recover``
            server = system.memory_servers[resolve_home(home)]
            to = server.component
            floor = (trip_timeout_floor(system, comp, to, pages.size)
                     if armed else 0.0)
            # No epochs recorded yet -> every snapshot would read 0; skip
            # building the dict and compare against 0 at the install.
            snapshots = ({p: epoch_get(p, 0) for p in listed}
                         if inval_epoch else None)
            counters["fetch_requests"] += 1
            try:
                at = scl.flight(comp, to, category="fetch_req")
                if at is None:
                    t = scl.send(comp, to, category="fetch_req",
                                 timeout_floor=floor)
                    if t is not None:
                        yield from t
                data = yield from server.serve_fetch_bulk(tid, pages, at)
                t = system.fabric.transfer_inline(to, comp, nbytes,
                                                  category="page")
                if t is not None:
                    yield from t
            except CommunicationError as err:
                backoffs = yield from recover(cs, server, err, backoffs)
                continue
            break
        system.rt_ledger.record(
            home, "demand" if demand.size else "speculative",
            len(layout.lines_of(pages)) if lines is None else lines)
        counters["pages_fetched"] += pages.size
        if after is not None:
            # The previous share's installs first: one thread installs one
            # share at a time. A share that failed hands its error on.
            failed = yield after
            if failed is not None:
                raise failed

        # The batched install leg: beta's per-page install cost is ONE
        # modeled charge of k * INSTALL_PAGE_TIME for the whole group.
        # Installs apply in bulk after the charge; every pass -- the
        # first, and each after a suspension (eviction for the demand
        # leg, the charge itself not advancing inline) -- re-validates
        # against raced fills (one probe of the trip's pages) and
        # invalidation epochs, read afresh, before bytes land.
        # Speculative riders never evict: what the cache cannot hold is
        # skipped, not made room for.
        resident = cache.resident_page_set()
        stale = 0
        eligible_d, eligible_s = demand, spec
        charged = False
        while True:
            if not resident.isdisjoint(listed):
                if eligible_d.size:
                    eligible_d = cache.missing_among(eligible_d)
                if eligible_s.size:
                    eligible_s = cache.missing_among(eligible_s)
            if snapshots is not None or inval_epoch:
                # A page whose epoch moved since the snapshot (0 where
                # none was taken: no epoch existed then) is stale.
                taken = snapshots or {}
                live = eligible_d.size + eligible_s.size
                eligible_d, eligible_s = (
                    np.array([p for p in v.tolist()
                              if epoch_get(p, 0) == taken.get(p, 0)],
                             dtype=np.int64)
                    for v in (eligible_d, eligible_s))
                stale += live - eligible_d.size - eligible_s.size
            free = cache.free_pages
            need = eligible_d.size - free
            if need > 0:
                yield from evict_batched(cs, tid, need, {*protect, *listed})
                continue
            room = free - eligible_d.size
            if eligible_s.size > room:
                keep = room if room > 0 else 0
                counters["prefetch_skipped_full"] += eligible_s.size - keep
                eligible_s = eligible_s[:keep]
            k = eligible_d.size + eligible_s.size
            if k and not charged:
                charged = True
                delay = k * INSTALL_PAGE_TIME
                if not cs.engine.try_advance(delay):
                    yield Timeout(delay)
                    continue  # suspended: re-validate before installing
            if eligible_d.size:
                cache.install_many(eligible_d, data, prefetched=False)
            if eligible_s.size:
                cache.install_many(eligible_s, data, prefetched=True)
            break
        if stale:
            counters["stale_fetch_dropped"] += stale
    except Exception as err:
        if not spawned:
            raise
        # Returned, not raised: the next share (or the faulting thread)
        # re-raises it when it joins, so it never fails an unjoined
        # process.
        return err
    finally:
        cache.end_fetch(token)
    if access is not None and not cache.span_resident(addr, span_bytes):
        # An invalidation took a page of the span back: fault again.
        if attempt == 63:
            raise MemoryError_(
                f"thread {tid} starved faulting [{addr:#x}, +{span_bytes})")
        yield from fetch_batched(cs, tid, NO_PAGES, NO_PAGES, (),
                                 access=access, attempt=attempt + 1)


def evict_batched(cs: "ComputeServer", tid: int, count: int,
                  protect: Iterable[int]):
    """Generator: evict ``count`` pages; dirty victims' diffs ship as one
    merge trip per home server instead of one put per page."""
    system = cs.system
    cache = cs.caches[tid]
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
        yield from flush_diffs_batched(cs, diffs, "diff", DIFF_SCAN_TIME)
    cs.stats.counters["evictions"] += len(victims)


def flush_diffs_batched(cs: "ComputeServer", diffs, category: str,
                        scan_time: float):
    """Generator: write diffs back grouped per logical home -- one put +
    one bulk apply per home, retrying through failovers and stale-stamp
    rejects as a unit. ``diffs`` is a list, only read: with one memory
    server it is the one group.

    ``scan_time``: what the sender still owes per diff for scanning the
    page against its twin, fused into the put as its lead (an eviction:
    ``DIFF_SCAN_TIME``). 0.0 at a sync point, which has charged its scans
    already; a put without a lead is a pure delay the home can handle on
    arrival (``SCL.flight``)."""
    system = cs.system
    config = system.config
    scl = system.scl
    ledger = system.rt_ledger
    line_of = config.layout.line_of_page
    resolve_home = system.directory.resolve_home
    if config.n_memory_servers == 1:
        groups = ((0, diffs),) if diffs else ()
    else:
        by_home: dict[int, list] = {}
        home_of_page = system.allocator.home_of_page
        for diff in diffs:
            by_home.setdefault(home_of_page(diff.page), []).append(diff)
        groups = sorted(by_home.items())
    for home, group in groups:
        n = len(group)
        if n == 1:  # a release's one stored-to page, one dirty victim
            wire, lines = group[0].wire_bytes, 1
        else:
            wire = sum([d.wire_bytes for d in group])
            lines = len({line_of(d.page) for d in group})
        lead = scan_time * n
        backoffs = 0
        while True:
            server = system.memory_servers[resolve_home(home)]
            try:
                at = None if lead else scl.flight(
                    cs.component, server.component, wire, category,
                    op="rdma_put")
                if at is None:
                    t = scl.rdma_put(cs.component, server.component, wire,
                                     category=category, lead=lead)
                    if t is not None:
                        yield from t
                yield from server.apply_diffs(group, at=at)
            except CommunicationError as err:
                # Failover wait or backoff, chosen by the error's recovery
                # classification (the retry pays its own wire cost).
                backoffs = yield from recover(cs, server, err, backoffs)
                continue
            break
        ledger.record(home, "merge", lines)
