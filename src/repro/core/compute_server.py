"""Compute servers: demand paging, prefetch and eviction for their threads.

"The compute servers are where the individual compute threads execute."
This class implements the fault path of §II: on a miss the thread requests
the whole multi-page cache line from its home; if the cache is full, victims
are chosen by the dirty-biased policy and written back before the install.

Every fault and eviction is one batched round trip per home server
(:mod:`repro.core.rtbatch`); there is no other fetch path. The paper's
anticipatory paging (``SamhitaConfig.prefetch``) fetches the line after a
demand miss on the miss's own round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core import rtbatch
from repro.memory.pagetable import NO_PAGES
from repro.sim.engine import DONE
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import SamhitaSystem
    from repro.memory.cache import SoftwareCache


class _CachedLock:
    """One cached lock-ownership grant (``config.lock_owner_cache``).

    ``held`` tracks whether the caching thread currently holds the lock
    locally; ``stash`` accumulates the release records (diffs, payload,
    spans, invalidate pages) of local releases the manager has not seen --
    surrendered on revoke, flushed at barrier entry, or shipped with the
    next full release RPC once a revoke is pending.
    """

    __slots__ = ("tid", "held", "stash", "revoke_pending")

    def __init__(self, tid: int):
        self.tid = tid
        self.held = False
        self.stash: list = []
        self.revoke_pending = False


class ComputeServer:
    """Fault/prefetch/eviction engine for the threads on one component."""

    def __init__(self, engine, component: str, system: "SamhitaSystem"):
        self.engine = engine
        self.component = component
        self.system = system
        self.threads: list[int] = []
        #: tid -> the thread's software cache (what the hot paths index).
        self.caches: dict[int, "SoftwareCache"] = {}
        #: Cached lock-ownership grants: {lock_id: _CachedLock}. Only ever
        #: populated with ``config.lock_owner_cache``.
        self.lock_cache: dict[int, _CachedLock] = {}
        #: The same grants per caching thread, {tid: {lock_id: grant}}, each
        #: in ``lock_cache`` order: a barrier arrival drains its own
        #: thread's stashes without walking every lock cached on the node.
        self._grants_of: dict[int, dict[int, _CachedLock]] = {}
        self.stats = StatSet(f"compute[{component}]")

    def register_thread(self, tid: int, cache: "SoftwareCache") -> None:
        self.threads.append(tid)
        self.caches[tid] = cache
        self._grants_of[tid] = {}

    # ------------------------------------------------------------------
    # lock-ownership cache (config.lock_owner_cache)
    # ------------------------------------------------------------------
    def lock_cache_try_acquire(self, tid: int, lock_id: int):
        """Local fast path: True when ``tid`` holds a cached grant for the
        lock -- the acquire completes with zero manager traffic (any
        intervening foreign acquire would have revoked the grant, so there
        are no pending updates to apply either)."""
        entry = self.lock_cache.get(lock_id)
        if (entry is None or entry.tid != tid or entry.held
                or entry.revoke_pending):
            return False
        entry.held = True
        self.stats.counters["lock_cache_hits"] += 1
        return True

    def lock_cache_release(self, tid: int, lock_id: int, record):
        """Local release of a cache-held lock.

        Returns ``("local", None)`` when the record was stashed (no RPC
        needed), ``("rpc", stash)`` when a revoke is pending and the caller
        must issue a full release RPC carrying the stash, or
        ``("miss", None)`` when the lock is not cached here."""
        entry = self.lock_cache.get(lock_id)
        if entry is None or entry.tid != tid or not entry.held:
            return ("miss", None)
        if entry.revoke_pending:
            self._drop_grant(lock_id)
            return ("rpc", entry.stash)
        entry.held = False
        entry.stash.append(record)
        self.stats.counters["lock_cache_local_releases"] += 1
        return ("local", None)

    def lock_cache_install(self, tid: int, lock_id: int) -> None:
        """The manager granted cacheability at release: remember the grant
        (idle, empty stash -- the release's record went to the manager)."""
        if lock_id in self.lock_cache:  # a stale grant keeps no slot
            self._drop_grant(lock_id)
        self.lock_cache[lock_id] = self._grants_of[tid][lock_id] = (
            _CachedLock(tid))

    def _drop_grant(self, lock_id: int) -> None:
        del self._grants_of[self.lock_cache.pop(lock_id).tid][lock_id]

    def lock_cache_surrender(self, lock_id: int):
        """Manager-side revoke (synchronous call from the owning shard).

        Returns ``("idle", stash)`` -- the grant is surrendered and the
        stashed records travel back with the reply -- or ``("held", tid)``
        when the caching thread holds the lock right now: the grant is
        marked revoke-pending and the eventual release RPC carries the
        stash."""
        entry = self.lock_cache.get(lock_id)
        self.stats.counters["lock_cache_revoked"] += 1
        if entry is None:
            return ("idle", [])
        if entry.held:
            entry.revoke_pending = True
            return ("held", entry.tid)
        self._drop_grant(lock_id)
        return ("idle", entry.stash)

    def lock_cache_holds(self, tid: int, lock_id: int) -> bool:
        entry = self.lock_cache.get(lock_id)
        return entry is not None and entry.tid == tid and entry.held

    def lock_cache_take_stashes(self, tid: int):
        """Drain ``tid``'s non-empty stashes for a barrier-entry flush.
        The grants themselves stay cached: once the records reach the
        manager's logs, an idle cached grant is consistent with RegC's
        global consistency point."""
        drained = []
        for lock_id, entry in self._grants_of[tid].items():
            if entry.stash:
                drained.append((lock_id, entry.stash))
                entry.stash = []
        if drained:
            self.stats.counters["lock_cache_flushes"] += len(drained)
        return drained

    # ------------------------------------------------------------------
    # fault path
    # ------------------------------------------------------------------
    def ensure_resident(self, tid: int, addr: int, nbytes: int):
        """Make every page of [addr, addr+nbytes) resident: ``DONE`` when
        it is, else the fault, one :func:`rtbatch.fetch_batched` frame
        (which faults again if a concurrent consistency action voids part
        of its fetch). Either way the caller ``yield from``-s it."""
        if self.caches[tid].span_resident(addr, nbytes):
            return DONE
        return rtbatch.fetch_batched(self, tid, NO_PAGES, NO_PAGES, (),
                                     access=(addr, nbytes))

    def _allocated_only(self, pages: np.ndarray, first: int,
                        stop: int) -> np.ndarray:
        """Drop pages outside any allocation (line tails past a region)
        from an ascending page vector that lies in ``[first, stop)``.

        A region is one page extent, so when the region of ``first`` also
        holds ``stop - 1`` it holds every page: a fault inside one
        allocation is answered by a single lookup on the bounds, Python
        ints. Otherwise the vector is cut region by region.
        """
        if not pages.size:
            return pages
        allocated_span = self.system.allocator.allocated_span
        span = allocated_span(first)
        if span is not None and stop <= span[1]:
            return pages
        span = allocated_span(pages.item(0))
        kept = []
        at = 0
        while at < pages.size:
            if span is None:
                at += 1  # a line tail: at most a line's worth of these
            else:
                end = int(pages.searchsorted(span[1]))
                kept.append(pages[at:end])
                at = end
            if at < pages.size:
                span = allocated_span(pages.item(at))
        return np.concatenate(kept) if kept else pages[:0]
