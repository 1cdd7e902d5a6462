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
from repro.errors import (
    ReplicationError,
    RetryExhaustedError,
    StaleEpochError,
)
from repro.memory.backing import BackingStore
from repro.memory.directory import PageDirectory
from repro.memory.pagetable import page_vector
from repro.memory.storelog import ReplicationLog
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
        #: Write-ahead replication log, armed by the system when
        #: ``replication_factor > 1`` (None keeps the single-copy build's
        #: apply paths untouched beyond one falsy check).
        self.wal: ReplicationLog | None = None
        #: Serializes shipping so two concurrent flushes cannot double-ship
        #: the same WAL tail (created with the WAL).
        self._repl_lock: Resource | None = None
        #: Checksums of the last :meth:`serve_fetch_bulk` reply, keyed by page.
        #: Valid only until the requester's next yield -- it reads them
        #: synchronously after the serve returns. None when integrity off.
        self.last_serve_crcs: dict[int, int] | None = None
        #: Fencing (armed by a fault plan): minimum epoch this server accepts
        #: on write-side RPCs, set to the minted epoch when the server is
        #: promoted. 0 means "never promoted": everything is acceptable.
        self.fence_epoch = 0
        #: Last cluster epoch this server observed, stamped on its own
        #: outbound WAL shipments.
        self.known_epoch = 0

    def bind(self, system: "SamhitaSystem") -> None:
        """Late-bind the system for owner-recall resolution."""
        self._system = system

    def arm_replication(self) -> None:
        """Give this server a WAL (``replication_factor > 1``)."""
        self.wal = ReplicationLog(self.index)
        self._repl_lock = Resource(self.engine, capacity=1,
                                   name=f"repl{self.index}")
        self.backing.integrity = True

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
            for owner in sorted(set(owners[owners >= 0].tolist())):
                r = self._recall_bulk(owner, pages[owners == owner])
                if r is not None:
                    yield from r
            return self._read_served(requester_tid, pages)
        finally:
            self.resource.release()

    def _read_served(self, requester_tid: int, pages: np.ndarray) -> dict:
        """The read leg of a bulk serve: register the requester as sharer
        (IVY) and copy each page out (checksummed, after the fault model's
        bitrot draw, with integrity armed). Sets ``last_serve_crcs``;
        returns ``{page: data}``."""
        backing = self.backing
        integrity = backing.integrity
        if self._track_sharers:
            self.directory.add_sharers(pages, requester_tid)
        if backing.functional or integrity:
            pages = pages.tolist()
            inj = self._system.injector if integrity else None
            if inj is not None and inj.plan.bitrot_rate:
                # Rot strikes (maybe) before the read below copies the
                # bytes; the shipped CRC is the stored one, which a rot
                # leaves stale -- that staleness IS the detection.
                for page in pages:
                    self._maybe_bitrot(page)
            result, self.last_serve_crcs = backing.serve_pages(pages)
            return result
        # Timing fast path: no bytes move; only frame existence and the
        # read counters matter, paid in bulk. The returned mapping stays
        # empty -- timing-mode callers only ``.get`` per-page data, which
        # is None either way.
        backing.serve_pages_timing(pages)
        self.last_serve_crcs = None
        return {}

    def _maybe_bitrot(self, page: int) -> None:
        """One bitrot draw for a page about to be served (the plan's
        ``bitrot_rate`` is armed: the caller checked).

        Gated on a live backup existing: unrepairable rot would break the
        data-identity contract, so the fault model only rots what the
        repair path can still fix (the draw itself is skipped too, keeping
        the dedicated bitrot RNG stream aligned with repairability). A
        backup the plan has already taken down counts as gone even before
        the detector declares it dead: between its crash and that
        declaration nothing could repair the page.
        """
        system = self._system
        backup = system.live_backup_of(page, self.index)
        if backup is None or system.injector.server_down(
                system.memory_servers[backup].component, self.engine.now):
            return
        if system.injector.draw_bitrot():
            self.backing.corrupt_page(page)

    def _wal_extend(self, diffs) -> None:
        """Write-ahead: log diffs BEFORE they merge into the backing store
        (the WAL is armed: the caller checked).

        A recall takes the *only* dirty copy from its writer; if this
        primary then dies mid-merge, the WAL tail replayed into the
        promoted backup is the sole surviving record. Targets are each
        page's currently-live backups (dead ones would pin entries
        forever).
        """
        self.wal.extend(diffs, self._system.replica_targets_each(
            diffs, self.index))

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
        if (not backing.functional and owner_cache.use_twins
                and self.wal is None and not backing.integrity):
            # Timing fast path: a diff is pure sizes here, so take and
            # apply in bulk without materializing PageDiff objects.
            dirty_pages, payload, wire = owner_cache.take_diff_sizes(pages)
            self.directory.clear_owners(pages)
            if not dirty_pages:
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
        if self.wal is not None:
            self._wal_extend(diffs)
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
                    if self.wal is not None:
                        self._wal_extend(diffs)
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
        if self.wal is not None:
            # After release (a ship holds the BACKUP's resource; holding our
            # own across it would AB-BA with the backup's own ships) but
            # before the grant returns: the upgrade completes only once
            # every live backup has acked its merged diffs.
            yield from self._replicate()
        return result

    def _fence(self, epoch: int | None, category: str) -> None:
        """Reject a write-side RPC stamped with a pre-promotion epoch.

        ``epoch`` is None unless a fault plan is armed (senders only stamp
        when a membership view exists), so a fault-free build pays one
        ``is None`` check. The write is never applied: the sender catches
        :class:`StaleEpochError`, refreshes its epoch and re-issues against
        the current primary -- which is how a partitioned old primary (or
        any sender that missed a failover) is stopped from laundering
        stale writes.
        """
        if epoch is None or epoch >= self.fence_epoch:
            return
        self.stats.counters["writes_fenced"] += 1
        self._system.membership.fenced()  # a stamp implies a membership
        raise StaleEpochError(self.component, self.component, category,
                              epoch, self.fence_epoch, self.engine.now)

    def apply_diffs(self, diffs: list, epoch: int | None = None,
                    at: float | None = None):
        """Generator: merge flushed diffs (server service + apply cost).

        The caller pays the wire transfer; homes apply in arrival order,
        which the DES serializes deterministically. As with fetches, the
        resource is held until the merge is visible. ``epoch`` is the
        sender's fencing stamp (None without a fault plan); stale stamps are
        rejected before any byte is merged. ``at``: the put is still in
        flight (see :meth:`serve_fetch_bulk`).
        """
        self._fence(epoch, "diff")
        yield from self.resource.request_service(self._service_time(), at)
        try:
            if self._system.is_server_dead(self.index):
                # The request landed just before the crash cut the wire: a
                # dead server processes nothing, so model it as lost and
                # let the caller fail over (applying here would strand the
                # diffs on a corpse whose WAL nobody replays again).
                raise RetryExhaustedError(self.component, self.component,
                                          "diff", 0, self.engine.now)
            total = sum([d.payload_bytes for d in diffs])
            if total:
                delay = APPLY_TIME_PER_BYTE * total
                if not self.engine.try_advance(delay):
                    yield Timeout(delay)
            if self.wal is not None:
                self._wal_extend(diffs)
            self.backing.apply_diffs(diffs)
            clear_owner = self.directory.clear_owner
            for diff in diffs:
                clear_owner(diff.page)
            counters = self.stats.counters
            counters["flushes"] += 1
            counters["flush_bytes"] += total
        finally:
            self.resource.release()
        if self.wal is not None:
            # Release-completes-after-ack: the flusher's release (barrier
            # arrival, lock handoff) does not finish until every live
            # backup acked. Runs after our own resource is free -- see
            # serve_upgrade for the deadlock rationale.
            yield from self._replicate()

    # ------------------------------------------------------------------
    # replication (replication_factor > 1)
    # ------------------------------------------------------------------
    def _replicate(self):
        """Generator: ship the WAL's unacknowledged tail to each live
        backup and collect acks.

        Serialized by ``_repl_lock`` so two concurrent flushes cannot ship
        the same entries twice. Acks are recorded only after the backup's
        apply returns (ack-after-delivery): claiming entries at collect
        time would discard diffs the backup never received if this primary
        dies mid-ship. A ship that exhausts its retries (this server or
        the backup is mid-crash) leaves its entries pending -- failover
        replays them into the promoted backup or prunes the dead target.
        """
        wal = self.wal
        if not wal.entries:
            return
        system = self._system
        counters = self.stats.counters
        yield from self._repl_lock.request()
        try:
            targets = sorted({t for e in wal.entries for t in e.pending})
            for target in targets:
                if system.is_server_dead(target):
                    wal.drop_target(target)
                    counters["repl_dead_targets"] += 1
                    continue
                entries = wal.unshipped(target)
                if not entries:
                    continue
                backup = system.memory_servers[target]
                diffs = [e.diff for e in entries]
                wire = sum([d.wire_bytes for d in diffs])
                fencing = system.membership is not None
                try:
                    t = system.scl.rdma_put(self.component, backup.component,
                                            wire, category="repl")
                    if t is not None:
                        yield from t
                    yield from backup.apply_replica(
                        diffs, epoch=self.known_epoch if fencing else None)
                    t = system.scl.send(backup.component, self.component,
                                        category="repl_ack")
                    if t is not None:
                        yield from t
                except RetryExhaustedError:
                    counters["repl_ship_failed"] += 1
                    continue
                except StaleEpochError:
                    # The backup was promoted past us: these entries were
                    # already replayed into it from the durable log at
                    # failover time, so shipping them again would launder
                    # pre-failover writes. Mark them superseded.
                    self.known_epoch = system.membership.epoch
                    wal.ack(target, entries)
                    counters["repl_ship_fenced"] += 1
                    continue
                wal.ack(target, entries)
                counters["repl_ships"] += 1
                counters["repl_diffs"] += len(diffs)
                counters["repl_bytes"] += sum([d.payload_bytes for d in diffs])
        finally:
            self._repl_lock.release()

    def apply_replica(self, diffs: list, epoch: int | None = None):
        """Generator: apply a primary's shipped WAL entries (backup side).

        Charges this server's queueing + service + apply cost, merges into
        the backing store, and nothing else -- no directory writes and no
        WAL append of its own. A backup is a passive byte copy until
        promoted; on promotion its frames already equal the dead primary's
        acked prefix, and the replayed WAL tail supplies the rest. A stamp
        older than this server's own promotion epoch is fenced: the shipper
        is a deposed primary whose tail the failover already replayed.
        """
        self._fence(epoch, "repl")
        yield from self.resource.request_service(self._service_time())
        try:
            total = sum([d.payload_bytes for d in diffs])
            if total:
                delay = APPLY_TIME_PER_BYTE * total
                if not self.engine.try_advance(delay):
                    yield Timeout(delay)
            self.backing.apply_diffs(diffs)
            self.stats.incr("replica_applies")
            self.stats.incr("replica_bytes", total)
        finally:
            self.resource.release()

    def serve_repair(self, requester_comp: str, page: int):
        """Generator: rebuild a rotted page from a live replica and ship
        the repaired copy (plus a fresh CRC) to the requester.

        The server resource is charged but NOT held across the replica
        round trip: two servers repairing pages homed on each other would
        AB-BA deadlock. Dropping the hold is safe because the rebuild
        below is atomic (no yields) and self-correcting: the replica's
        copy lags this primary by exactly the WAL entries the replica has
        not acked, so replica copy + unacked-entries-for-this-page replay
        reproduces the primary's correct current bytes (bitrot flips
        stored bytes, never logged diffs). Any diff that lands during the
        round trip is itself WAL-logged and therefore in the replay.
        """
        system = self._system
        yield from self.resource.use(self._service_time())
        target = system.live_backup_of(page, self.index)
        if target is None:
            raise ReplicationError(
                f"page {page}: no live replica to repair from")
        replica = system.memory_servers[target]
        t = system.scl.send(self.component, replica.component,
                            category="repair_pull")
        if t is not None:
            yield from t
        yield from replica.resource.use(replica._service_time())
        data = replica.backing.read_page(page)
        t = system.fabric.transfer_inline(
            replica.component, self.component, self.config.layout.page_bytes,
            category="repair_page")
        if t is not None:
            yield from t
        # Atomic rebuild: replica copy, then the unacked WAL tail for this
        # page, in LSN order.
        self.backing.restore_page(page, data)
        if self.wal is not None:
            for entry in self.wal.unshipped_for_page(page, target):
                self.backing.apply_diff(entry.diff)
        self.stats.counters["repairs_served"] += 1
        crc = self.backing.page_crc(page)
        repaired = self.backing.read_page(page)
        t = system.fabric.transfer_inline(
            self.component, requester_comp, self.config.layout.page_bytes,
            category="repair_data", tail=INSTALL_PAGE_TIME)
        if t is not None:
            yield from t
        return repaired, crc
