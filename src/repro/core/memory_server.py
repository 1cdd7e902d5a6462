"""Memory servers: the page homes of the global address space.

"The memory servers are responsible for serving the memory required for the
shared global address space." Each server owns a :class:`BackingStore` and a
single-unit DES resource, so concurrent requests queue (this queueing is the
hot-spot the striped allocator exists to spread).

Serving a fetch may require a *recall*: if the directory says some thread
owns the page (it holds an unflushed single-writer diff), the server pulls
that diff over the fabric and merges it before replying -- the lazy half of
the barrier protocol in :mod:`repro.core.consistency`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.params import (
    APPLY_TIME_PER_BYTE,
    INSTALL_PAGE_TIME,
    INVALIDATE_PAGE_TIME,
    MEMSERVER_SERVICE_TIME,
)
from repro.memory.backing import BackingStore
from repro.memory.directory import PageDirectory
from repro.memory.pagetable import page_vector
from repro.sim.engine import Engine, Timeout
from repro.sim.resources import Resource
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import SamhitaSystem


class MemoryServer:
    """One page home."""

    def __init__(self, engine: Engine, component: str, index: int,
                 config, directory: PageDirectory):
        self.engine = engine
        self.component = component
        self.index = index
        self.config = config
        self.directory = directory
        #: Only the eager write-invalidate baseline ever reads sharer
        #: lists (:meth:`serve_upgrade`), so only it pays to keep them.
        self._track_sharers = config.coherence == "ivy"
        self.backing = BackingStore(config.layout, functional=config.functional,
                                    name=f"backing{index}")
        self.resource = Resource(engine, capacity=1, name=f"memserver{index}")
        self.stats = StatSet(f"memserver{index}")
        self._system: "SamhitaSystem | None" = None

    def bind(self, system: "SamhitaSystem") -> None:
        """Late-bind the system for owner-recall resolution."""
        self._system = system

    def _service_time(self) -> float:
        """Per-request service charge, inflated by any active slow-server
        window (the gray-failure fault model). Pure window arithmetic --
        with no injector or no active window this returns
        ``MEMSERVER_SERVICE_TIME``, bit-identically."""
        base = MEMSERVER_SERVICE_TIME
        system = self._system
        if system is None:
            return base
        inj = system.injector
        if inj is None or not inj.has_slow_servers:
            return base
        return base * inj.slow_factor(self.component, self.engine.now)

    # ------------------------------------------------------------------
    # request handlers (generators run inside the requester's process)
    # ------------------------------------------------------------------
    def serve_fetch_bulk(self, requester_tid: int, pages: np.ndarray,
                         at: float | None = None):
        """Generator: batched fetch serve of a page vector.

        The caller has already paid the request message; this charges ONE
        service charge for the whole request (alpha is paid once per trip,
        not per line), performs owner recalls grouped into one bulk recall
        round trip per owner, and returns ``{page: data}`` (empty in timing
        mode). The caller pays the reply transfer.

        The service resource is held for the WHOLE request (the server's
        event loop is sequential): otherwise two concurrent faults on an
        owner-held page race -- the second would see ownership already
        cleared and read the home copy before the in-flight recall merges.

        ``at``: the request message is still in flight (``SCL.flight``) and
        reaches the service queue at that instant; the requester resumes
        once, served.
        """
        yield from self.resource.request_service(self._service_time(), at)
        try:
            counters = self.stats.counters
            counters["fetches"] += 1
            counters["pages_served"] += pages.size
            owners = self.directory.owners_of(pages, but=requester_tid)
            recalled = owners[owners >= 0]
            if recalled.size:
                for owner in sorted(set(recalled.tolist())):
                    r = self._recall_bulk(owner, pages[owners == owner])
                    if r is not None:
                        yield from r
            return self._read_served(requester_tid, pages)
        finally:
            self.resource.release()

    def _read_served(self, requester_tid: int, pages: np.ndarray) -> dict:
        """The read leg of a bulk serve: register the requester as sharer
        (IVY) and copy each page out. Returns ``{page: data}``."""
        backing = self.backing
        if self._track_sharers:
            self.directory.add_sharers(pages, requester_tid)
        if backing.functional:
            return backing.serve_pages(pages.tolist())
        # Timing fast path: no bytes move; only frame existence and the
        # read counters matter, paid in bulk. The returned mapping stays
        # empty -- timing-mode callers only ``.get`` per-page data, which
        # is None either way.
        backing.serve_pages_timing(pages)
        return {}

    # ------------------------------------------------------------------
    # owner recall
    # ------------------------------------------------------------------
    def _recall_bulk(self, owner_tid: int, pages: np.ndarray):
        """Pull ALL pages one owner holds as ONE modeled round trip: a
        single recall request, a single bulk diff return (summed wire
        bytes, one fused apply tail) and a single merge.

        Plain function (the transfer_inline pattern): returns ``None`` when
        the whole recall completed inline, else a generator the caller must
        ``yield from``. ``recalls`` counts pages recalled, ``recall_trips``
        the request messages. Requires :meth:`bind` to have run (every
        recall is reached through a bound system, so no per-call assert).
        """
        system = self._system
        counters = self.stats.counters
        counters["recalls"] += pages.size
        counters["recall_trips"] += 1
        system.rt_ledger.record(
            self.index, "recall",
            len(self.config.layout.lines_of(pages)))
        owner_comp = system._thread_comp[owner_tid]
        t = system.scl.send(self.component, owner_comp, category="recall")
        if t is not None:
            return self._recall_bulk_after_send(t, owner_tid, owner_comp,
                                                pages)
        return self._recall_bulk_merge(owner_tid, owner_comp, pages)

    def _recall_bulk_after_send(self, send_gen, owner_tid, owner_comp, pages):
        """Generator: bulk-recall slow path -- request message in flight."""
        yield from send_gen
        r = self._recall_bulk_merge(owner_tid, owner_comp, pages)
        if r is not None:
            yield from r

    def _recall_bulk_merge(self, owner_tid, owner_comp, pages):
        """Plain-or-generator: take every dirty diff the owner holds,
        clear ownership (atomically with the take -- no yield between),
        then one bulk transfer + merge."""
        system = self._system
        owner_cache = system._caches[owner_tid]
        backing = self.backing
        res = system.resilience
        if (not backing.functional and owner_cache.use_twins
                and (res is None or res.wals is None)):
            # Timing fast path: a diff is pure sizes here, so take and
            # apply in bulk without materializing PageDiff objects (a
            # write-ahead log records PageDiffs, so it takes the slow path).
            dirty_pages, payload, wire = owner_cache.take_diff_sizes(pages)
            self.directory.clear_owners(pages)
            if not dirty_pages.size:
                return None
            t = system.fabric.transfer_inline(
                owner_comp, self.component, wire, category="recall_diff",
                tail=APPLY_TIME_PER_BYTE * payload)
            if t is not None:
                return self._recall_bulk_apply_sizes(t, dirty_pages, payload)
            backing.apply_diff_sizes(dirty_pages, payload)
            self.stats.incr("recall_bytes", payload)
            return None
        diffs = owner_cache.take_diffs(pages.tolist())
        self.directory.clear_owners(pages)
        if not diffs:
            return None
        if res is not None:
            res.log(self, diffs)
        payload = wire = 0
        for diff in diffs:
            payload += diff.payload_bytes
            wire += diff.wire_bytes
        t = system.fabric.transfer_inline(
            owner_comp, self.component, wire, category="recall_diff",
            tail=APPLY_TIME_PER_BYTE * payload)
        if t is not None:
            return self._recall_bulk_apply(t, diffs, payload)
        backing.apply_diffs(diffs)
        self.stats.incr("recall_bytes", payload)
        return None

    def _recall_bulk_apply(self, transfer_gen, diffs, payload):
        """Generator: bulk-recall slow path -- diff transfer in flight."""
        yield from transfer_gen
        self.backing.apply_diffs(diffs)
        self.stats.incr("recall_bytes", payload)

    def _recall_bulk_apply_sizes(self, transfer_gen, dirty_pages, payload):
        """Generator: timing-mode bulk-recall slow path."""
        yield from transfer_gen
        self.backing.apply_diff_sizes(dirty_pages, payload)
        self.stats.incr("recall_bytes", payload)

    def serve_upgrade(self, writer_tid: int, writer_comp: str, page: int):
        """Generator: grant exclusive write access to a page (the eager
        write-invalidate protocol's core operation).

        Recalls the current exclusive owner's data if any, invalidates every
        other sharer's copy synchronously (the writer waits for the acks --
        the page ping-pong cost that motivates the multiple-writer/RegC
        design), then ships the *current* page contents to the writer. The
        data transfer and install cost happen inside the grant, so the
        caller can install and store with no further yields: the write is
        atomic with its grant, which is what keeps contended upgrades from
        livelocking.
        """
        assert self._system is not None, "memory server not bound to a system"
        system = self._system
        res = system.resilience
        yield from self.resource.request_service(self._service_time())
        try:
            owner = self.directory.owner_of(page)
            if owner is not None and owner != writer_tid:
                r = self._recall_bulk(owner, page_vector([page]))
                if r is not None:
                    yield from r
            for sharer in sorted(self.directory.sharers_of(page)):
                if sharer == writer_tid:
                    continue
                comp = system.component_of(sharer)
                t = system.scl.send(self.component, comp,
                                    category="invalidate")
                if t is not None:
                    yield from t
                cache = system.cache_of(sharer)
                if cache.is_dirty(page):
                    # Stale exclusivity: merge first.
                    diffs = cache.take_diffs((page,))
                    if res is not None:
                        res.log(self, diffs)
                    self.backing.apply_diffs(diffs)
                # Drops the copy AND advances the page's invalidation
                # counter, voiding any of the sharer's in-flight fetches.
                cache.invalidate([page])
                if not self.engine.try_advance(INVALIDATE_PAGE_TIME):
                    yield Timeout(INVALIDATE_PAGE_TIME)
                t = system.scl.send(comp, self.component,
                                    category="invalidate_ack")
                if t is not None:
                    yield from t
                self.directory.remove_sharer(page, sharer)
            self.directory.record_owner(page, writer_tid)
            self.directory.add_sharer(page, writer_tid)
            self.stats.incr("upgrades")
            # Write fault carries the current page contents + install cost
            # (fused into the transfer's suspension).
            t = system.fabric.transfer_inline(
                self.component, writer_comp, self.config.layout.page_bytes,
                category="upgrade_data", tail=INSTALL_PAGE_TIME)
            if t is not None:
                yield from t
            result = self.backing.read_page(page)
        finally:
            self.resource.release()
        if res is not None:
            yield from res.ship(self)
        return result

    def merge(self, diffs: list, at: float | None = None, res=None):
        """Generator: the apply leg every merge at this server shares -- one
        service slot, held until the merge is visible, the per-byte apply
        charge, the merge into the backing store. Returns the payload bytes
        merged; what the caller does next, with no yield between, is atomic
        with the merge. ``res``: the resilience layer, whose liveness check
        a merge must pass once it holds the slot; ``at``: see
        :meth:`serve_fetch_bulk`."""
        yield from self.resource.request_service(self._service_time(), at)
        try:
            if res is not None:
                res.check_alive(self)
            total = (diffs[0].payload_bytes if len(diffs) == 1
                     else sum([d.payload_bytes for d in diffs]))
            if total:
                delay = APPLY_TIME_PER_BYTE * total
                if not self.engine.try_advance(delay):
                    yield Timeout(delay)
            self.backing.apply_diffs(diffs)
        finally:
            self.resource.release()
        return total

    def apply_diffs(self, diffs: list, at: float | None = None):
        """Generator: merge flushed diffs (server service + apply cost).

        The caller pays the wire transfer; homes apply in arrival order,
        which the DES serializes deterministically. ``at``: the put is
        still in flight (see :meth:`serve_fetch_bulk`).
        """
        res = self._system.resilience
        total = yield from self.merge(diffs, at, res)
        if res is not None:
            res.log(self, diffs)
        clear_owner = self.directory.clear_owner
        for diff in diffs:
            clear_owner(diff.page)
        counters = self.stats.counters
        counters["flushes"] += 1
        counters["flush_bytes"] += total
        if res is not None:
            yield from res.ship(self)
