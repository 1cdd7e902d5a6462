"""The per-compute-thread software cache.

Each Samhita compute thread "has a local software cache through which it
accesses the shared global address space". This class is the mechanism only
-- residency, twins, dirty tracking, eviction choice -- while the protocol
(what to fetch from where, what to flush when) lives in
:mod:`repro.core.compute_server` and :mod:`repro.core.consistency`.

Policy knobs reproduced from the paper:

* cache lines span multiple pages (``layout.pages_per_line``);
* eviction "is biased towards pages that have been written to";
* a multiple-writer twin is created on the first ordinary-region write.

Per-page state is one row of a :class:`~repro.memory.pagetable.PageTable`
(DESIGN.md S9): LRU tick, prefetched flag and a dirty extent ``[lo, hi)`` in
NumPy columns, and in functional mode the page's bytes and its twin as rows
of two byte columns (one ``(256, page_bytes)`` array per chunk each). A
page that acquires a second, disjoint dirty range spills to a
:class:`ByteRanges`. Operations on a wide span or batch are slice / index
operations on the columns; narrow ones (fewer than ``WIDE`` pages) walk the
pages, which is cheaper than the fixed cost of an array call. Bytes always
move by slice: a store or a read of a span is one slice of each chunk's
flat byte view.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from types import MappingProxyType
from typing import Iterable

import numpy as np

from repro.errors import ConsistencyError, MemoryError_, ProtectionError
from repro.memory.diff import ByteRanges, PageDiff, diff_spans
from repro.memory.layout import MemoryLayout
from repro.memory.pagetable import (CHUNK_MASK, CHUNK_SHIFT, NO_PAGES,
                                    PageTable, page_vector)
from repro.sim.stats import StatSet

#: Column indices of a cache chunk. ``TICK`` is the last-access tick, 0 for
#: a non-resident page (ticks start at 1). ``HI`` is 0 for a clean page and
#: -1 for one whose ranges spilled to ``SoftwareCache._spill``. ``DATA`` and
#: ``TWIN`` are byte columns (functional mode; ``TWIN`` only with twins), a
#: page's row of which holds its bytes and its twin; ``DATA_FLAT`` and
#: ``TWIN_FLAT`` are their chunks' flat views. A page's twin row is live
#: exactly while ``HI != 0``.
TICK, PREF, LO, HI, DATA, TWIN, DATA_FLAT, TWIN_FLAT = range(8)

#: Spans and batches of at least this many pages go through the columns.
WIDE = 8


def _selector(pages):
    """``select(held) -> set``: the members of the set ``held`` that
    ``pages`` lists. Sets and barrier directives answer that themselves."""
    select = getattr(pages, "intersection", None)
    return set(pages).intersection if select is None else select


class EvictionPolicy(Enum):
    #: The paper's policy: prefer written (dirty) pages, LRU within a class.
    DIRTY_BIASED = "dirty-biased"
    #: Plain least-recently-used (ablation).
    LRU = "lru"
    #: Prefer clean pages -- the conventional write-back heuristic (ablation).
    CLEAN_FIRST = "clean-first"


class CacheEntry:
    """Read-only view of one resident page's row (diagnostics and tests;
    the cache's own paths construct none)."""

    __slots__ = ("_cache", "page")

    def __init__(self, cache: "SoftwareCache", page: int):
        self._cache = cache
        self.page = page

    def _field(self, column: int):
        cols = self._cache._table.chunks[self.page >> CHUNK_SHIFT]
        return None if cols[column] is None else cols[column][self.page & CHUNK_MASK]

    data = property(lambda self: self._field(DATA))
    last_access = property(lambda self: int(self._field(TICK)))
    prefetched = property(lambda self: bool(self._field(PREF)))
    is_dirty = property(lambda self: bool(self._field(HI)))

    @property
    def dirty(self) -> ByteRanges:
        return ByteRanges(self._cache.dirty_ranges(self.page))


def _outside(lo: int, hi: int, start: int, end: int):
    """Sub-ranges of [start, end) NOT covered by the extent [lo, hi) --
    ``ByteRanges.gaps_within`` for a single range."""
    if end <= lo or start >= hi:
        return ((start, end),)
    gaps = ((start, lo),) if start < lo else ()
    return gaps + ((hi, end),) if end > hi else gaps


class SoftwareCache:
    """Mechanism for one thread's page cache."""

    def __init__(
        self,
        layout: MemoryLayout,
        capacity_pages: int,
        functional: bool = True,
        policy: EvictionPolicy = EvictionPolicy.DIRTY_BIASED,
        use_twins: bool = True,
        name: str = "cache",
    ):
        if capacity_pages < layout.pages_per_line:
            raise MemoryError_("cache must hold at least one full line")
        self.layout = layout
        self.capacity_pages = capacity_pages
        self.functional = functional
        self.policy = policy
        #: Multiple-writer twin/diff protocol; when False the cache behaves
        #: like a single-writer protocol and write-back ships whole pages.
        self.use_twins = use_twins
        self.name = name
        page_bytes = layout.page_bytes
        extent = np.int16 if page_bytes < 1 << 15 else np.int32
        self._table = PageTable((
            np.int64, np.bool_, extent, extent,
            page_bytes if functional else None,
            page_bytes if functional and use_twins else None))
        #: Byte offsets of a page, for :meth:`take_diffs`'s extent masks.
        self._offsets = (np.arange(page_bytes, dtype=extent)
                         if functional and use_twins else None)
        #: Resident page numbers. Mirrors ``TICK != 0``: the set answers
        #: per-page probes and set intersections (barrier directives), the
        #: column answers spans.
        self._resident: set[int] = set()
        #: Pages holding two or more disjoint dirty ranges (``HI == -1``).
        self._spill: dict[int, ByteRanges] = {}
        #: Pages ordinary-written since the last barrier (the write-notice
        #: set). Independent of residency: an evicted page's notice must
        #: still reach threads holding stale copies.
        self.epoch_written: set[int] = set()
        #: Per-page invalidation counters. A fetch in flight when the page
        #: is invalidated must not install its (pre-invalidation) data; the
        #: fetcher registers its pages (:meth:`begin_fetch`), snapshots
        #: this counter and checks it at install time. Counters advance
        #: only for registered in-flight pages -- a bump on a page nobody
        #: is fetching has no observer, and barrier directives routinely
        #: list thousands of non-resident pages.
        self.inval_epoch: Counter = Counter()
        #: Active fetch registrations: token -> pages as registered, or as
        #: a set once an invalidation looked at them (see begin_fetch).
        self._inflight_sets: dict[int, object] = {}
        self._inflight_token = 0
        self.stats = StatSet(name)
        self._tick = 0

    @property
    def entries(self) -> MappingProxyType:
        """Read-only diagnostic snapshot: resident page -> a
        :class:`CacheEntry` view, built per use (O(resident pages))."""
        return MappingProxyType({page: CacheEntry(self, page)
                                 for page in sorted(self._resident)})

    def _row(self, page: int):
        """``(cols, i)`` of a page whose chunk exists."""
        return self._table.chunks[page >> CHUNK_SHIFT], page & CHUNK_MASK

    # ------------------------------------------------------------------
    # residency queries
    # ------------------------------------------------------------------
    def resident(self, page: int) -> bool:
        return page in self._resident

    def span_resident(self, addr: int, nbytes: int) -> bool:
        """True iff every page of ``[addr, addr+nbytes)`` is resident --
        the hit test the batched access-plan executor runs per operation."""
        if nbytes <= 0:
            return True
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        if first == last:
            return first in self._resident
        if last - first < WIDE:
            return self._resident.issuperset(range(first, last + 1))
        for cols, a, b, _ in self._table.segments(first, last + 1):
            if cols is None or not cols[TICK][a:b].all():
                return False
        return True

    def missing_in(self, first: int, stop: int) -> np.ndarray:
        """Non-resident pages of ``[first, stop)``: an ascending vector."""
        if stop - first < WIDE:
            resident = self._resident
            return np.array([p for p in range(first, stop)
                             if p not in resident], dtype=np.int64)
        missing = []
        for cols, a, b, page in self._table.segments(first, stop):
            if cols is None:
                missing.append(np.arange(page, page + b - a))
            else:
                absent = (cols[TICK][a:b] == 0).nonzero()[0]
                if absent.size:
                    missing.append(absent + page)
        if len(missing) == 1:
            return missing[0]
        return np.concatenate(missing) if missing else NO_PAGES

    def missing_among(self, pages: np.ndarray) -> np.ndarray:
        """The non-resident members of a page vector, in its order."""
        if pages.size < 64:  # set probes beat a column gather up to here
            resident = self._resident
            missing = [p for p in pages.tolist() if p not in resident]
            if len(missing) == pages.size:
                return pages
            return np.array(missing, dtype=np.int64)
        return pages[self._table.gather(TICK, pages) == 0]

    def resident_page_set(self):
        """Set view of the resident page numbers (live, do not mutate)."""
        return self._resident

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - len(self._resident)

    def is_dirty(self, page: int) -> bool:
        """Resident with unflushed ordinary-region writes?"""
        return (page in self._resident and bool(
            self._table.chunks[page >> CHUNK_SHIFT][HI][page & CHUNK_MASK]))

    def dirty_among(self, pages) -> set[int]:
        """The members of ``pages`` that are resident-dirty."""
        hits = _selector(pages)(self._resident)
        if len(hits) < WIDE:
            is_dirty = self.is_dirty
            return {p for p in hits if is_dirty(p)}
        hits = np.array(sorted(hits), dtype=np.int64)
        return set(hits[self._table.gather(HI, hits) != 0].tolist())

    def dirty_ranges(self, page: int):
        """The page's dirty ``(start, end)`` ranges, ascending."""
        cols = self._table.chunks[page >> CHUNK_SHIFT]
        hi = int(cols[HI][page & CHUNK_MASK])
        if hi < 0:
            return self._spill[page]
        return ((int(cols[LO][page & CHUNK_MASK]), hi),) if hi else ()

    # ------------------------------------------------------------------
    # install / evict / invalidate
    # ------------------------------------------------------------------
    def install(self, page: int, data: np.ndarray | None, prefetched: bool = False) -> None:
        """Bring a fetched page into the cache (caller made room first)."""
        if page not in self._resident:
            return self.install_many([page], {page: data}, prefetched)
        # Refresh of an already-resident page (re-fetch after a race).
        cols, i = self._row(page)
        if cols[HI][i]:
            raise ConsistencyError(f"{self.name}: refreshing dirty page {page}")
        if self.functional:
            cols[DATA][i] = data
        cols[PREF][i] = prefetched

    def install_many(self, pages, data, prefetched: bool = False) -> None:
        """Batched :meth:`install` of distinct, non-resident pages (a list
        or a page vector); ``data`` maps page -> bytes (empty in timing
        mode), which are copied into the pages' rows.

        Contract (the bulk-fetch fast path guarantees it): none of the
        pages is already resident. Ticks advance exactly as the per-page
        calls would; counters flush once.
        """
        n = len(pages)
        if len(self._resident) + n > self.capacity_pages:
            raise MemoryError_(f"{self.name}: install over capacity")
        tick = self._tick
        if n < WIDE:
            if isinstance(pages, np.ndarray):
                pages = pages.tolist()
            chunks = self._table.chunks
            for page in pages:
                tick += 1
                key = page >> CHUNK_SHIFT
                cols = chunks[key] if key in chunks else self._table.chunk(key)
                cols[TICK][page & CHUNK_MASK] = tick
                cols[PREF][page & CHUNK_MASK] = prefetched
        else:
            batch = np.asarray(pages, dtype=np.int64)
            self._table.scatter(TICK, batch, np.arange(tick + 1, tick + n + 1),
                                create=True)
            self._table.scatter(PREF, batch, prefetched)
            tick += n
            pages = batch.tolist()
        if self.functional:
            chunks = self._table.chunks
            for page in pages:
                chunks[page >> CHUNK_SHIFT][DATA][page & CHUNK_MASK] = data[page]
        self._tick = tick
        self._resident.update(pages)
        counters = self.stats.counters
        counters["installs"] += n
        if prefetched:
            counters["prefetch_installs"] += n

    def choose_victims(self, count: int, protect: Iterable[int] = ()) -> list[int]:
        """Pick ``count`` pages to evict under the configured policy.

        One ordered selection over the columns per call: candidates sort by
        (policy class, last-access tick). Ticks never repeat, so the order
        is total and the result is the prefix of the full ascending sort.
        """
        if count <= 0:
            return []
        protected = set(protect)
        available = len(self._resident) - len(protected & self._resident)
        if available < count:
            raise MemoryError_(f"{self.name}: cannot evict {count} pages "
                               f"({available} unprotected)")
        pages, key = [], []
        for cols, rows, chunk_pages in self._table.live_rows(TICK):
            ticks = cols[TICK][rows]
            if self.policy is not EvictionPolicy.LRU:
                # The class evicted last sorts above every tick.
                late = cols[HI][rows] == 0
                if self.policy is EvictionPolicy.CLEAN_FIRST:
                    late = ~late
                ticks = ticks + (late.astype(np.int64) << 62)
            pages.append(chunk_pages)
            key.append(ticks)
        pages = pages[0] if len(pages) == 1 else np.concatenate(pages)
        key = key[0] if len(key) == 1 else np.concatenate(key)
        # The count + |protected| smallest keys hold the count smallest
        # unprotected ones, whatever is protected.
        want = count + len(protected)
        nearest = (np.argpartition(key, want - 1)[:want]
                   if want < key.size else np.arange(key.size))
        ordered = pages[nearest[np.argsort(key[nearest])]].tolist()
        return [p for p in ordered if p not in protected][:count]

    def evict(self, page: int) -> PageDiff | None:
        """Drop a page; if dirty, return the diff that must be written back."""
        if page not in self._resident:
            raise MemoryError_(f"{self.name}: evicting non-resident page {page}")
        counters = self.stats.counters
        counters["evictions"] += 1
        cols, i = self._row(page)
        diff = None
        hi = cols[HI].item(i)
        if hi:
            counters["evictions_dirty"] += 1
            diff = self._diff_of(page, cols, i, hi)
            cols[HI][i] = 0
            self._spill.pop(page, None)
        else:
            counters["evictions_clean"] += 1
        self._resident.remove(page)
        cols[TICK][i] = 0
        return diff

    def begin_fetch(self, pages) -> int:
        """Register a fetch's pages (any iterable, or a page vector) as in
        flight; returns a token for :meth:`end_fetch`. While registered,
        :meth:`invalidate` advances the pages' invalidation counters, so
        the fetcher's snapshot/check pair sees any invalidation that lands
        mid-flight."""
        self._inflight_token += 1
        self._inflight_sets[self._inflight_token] = pages
        return self._inflight_token

    def end_fetch(self, token: int) -> None:
        self._inflight_sets.pop(token, None)

    def _inflight(self):
        """Every registration as a set; a fetch's pages become one the
        first time an invalidation has to look at them."""
        registered = self._inflight_sets
        for token, pages in registered.items():
            if not isinstance(pages, set):
                pages = registered[token] = set(
                    pages.tolist() if isinstance(pages, np.ndarray) else pages)
            yield pages

    def invalidate(self, pages, skip_dirty: bool = False) -> int:
        """Drop clean copies of the given pages; returns how many it dropped.

        ``pages`` is an iterable of page numbers, or anything that can say
        which members of a set it lists (``intersection``: a set, or a
        barrier's :class:`~repro.core.consistency.InvalidateDirective`,
        which names every page anyone else wrote -- usually thousands,
        nearly all non-resident -- and is only ever resolved against the
        pages held here).

        An in-flight fetch of a listed page carries pre-invalidation data
        and must be discarded on arrival: the invalidation counter of
        every listed page some fetcher has registered (:meth:`begin_fetch`)
        advances, resident copy or not. Unregistered pages' counters are
        left alone -- no snapshot exists that could observe the bump.

        Invalidating a dirty page is a protocol error -- the consistency
        layer must flush (multi-writer) diffs before invalidating -- unless
        ``skip_dirty``: a barrier leaves alone the lazily-held diffs the
        directory still credits to this thread.
        """
        select = _selector(pages)
        hits = select(self._resident)
        dirty = self.dirty_among(hits) if hits else hits
        if dirty:
            if not skip_dirty:
                raise ConsistencyError(f"{self.name}: invalidating dirty page "
                                       f"{min(dirty)} without flush")
            hits = hits - dirty
        if self._inflight_sets:
            bump: set[int] = set()
            for inflight in self._inflight():
                bump |= select(inflight)
            bump -= dirty
            if bump:
                self.inval_epoch.update(bump)
        if not hits:
            return 0
        # Clean rows: HI is 0, so no twin is held.
        self._resident.difference_update(hits)
        chunks = self._table.chunks
        dropped = len(hits)
        if dropped < WIDE:
            for page in hits:
                chunks[page >> CHUNK_SHIFT][TICK][page & CHUNK_MASK] = 0
        else:
            rows = np.fromiter(hits, np.int64, dropped)
            rows.sort()
            self._table.scatter(TICK, rows, 0)
        self.stats.counters["invalidations"] += dropped
        return dropped

    def inval_epoch_of(self, page: int) -> int:
        return self.inval_epoch.get(page, 0)

    # ------------------------------------------------------------------
    # data access (requires residency)
    # ------------------------------------------------------------------
    def _touch(self, first: int, last: int) -> None:
        """One access to each page of ``[first, last]``: residency check
        (nothing changes if a page is missing), an LRU tick per page in
        ascending order, prefetch-hit accounting."""
        n = last - first + 1
        tick = self._tick
        hits = 0
        if n < WIDE:
            resident = self._resident
            chunks = self._table.chunks
            for page in range(first, last + 1):
                if page not in resident:
                    raise ProtectionError(
                        f"{self.name}: access to non-resident page {page}")
            for page in range(first, last + 1):
                cols = chunks[page >> CHUNK_SHIFT]
                i = page & CHUNK_MASK
                tick += 1
                cols[TICK][i] = tick
                if cols[PREF][i]:
                    cols[PREF][i] = False
                    hits += 1
        else:
            missing = self.missing_in(first, last + 1)
            if missing.size:
                raise ProtectionError(
                    f"{self.name}: access to non-resident page {missing[0]}")
            for cols, a, b, _ in self._table.segments(first, last + 1):
                cols[TICK][a:b] = np.arange(tick + 1, tick + 1 + b - a)
                tick += b - a
                prefetched = int(np.count_nonzero(cols[PREF][a:b]))
                if prefetched:
                    cols[PREF][a:b] = False
                    hits += prefetched
        self._tick = tick
        counters = self.stats.counters
        counters["page_touches"] += n
        if hits:
            counters["prefetch_hits"] += hits

    def apply_hit_run(self, touches: int, pages: np.ndarray,
                      last_touch: np.ndarray, pieces, reads: int,
                      read_bytes: int, writes: int, write_bytes: int) -> None:
        """A run of timing-mode ordinary-region reads and writes, every one
        a hit on fewer than ``WIDE`` pages, applied at once; the state left
        behind is what :meth:`read` / :meth:`write` leave call by call.

        The run made ``touches`` page touches; ``pages`` are the distinct
        pages touched and ``last_touch`` the 0-based position of each one's
        last touch (its final LRU tick -- earlier ticks are overwritten
        unread). ``pieces`` lists the distinct dirty pieces ``(page, lo,
        hi, full)`` in first-occurrence order: a dirty state is the union
        of what was added to it, so adding a piece a second time changes
        nothing and only first occurrences matter. ``full`` marks a page
        in the middle of a multi-page write.
        """
        if self.functional:
            raise MemoryError_(f"{self.name}: hit runs carry no bytes")
        missing = self.missing_among(pages)
        if missing.size:
            raise ProtectionError(
                f"{self.name}: access to non-resident page {missing[0]}")
        table = self._table
        table.scatter(TICK, pages, self._tick + 1 + last_touch)
        self._tick += touches
        # A prefetched page is a prefetch hit at its first touch, once.
        prefetched = pages[table.gather(PREF, pages) != 0]
        if prefetched.size:
            table.scatter(PREF, prefetched, False)
        page_bytes = self.layout.page_bytes
        for page, lo, hi, full in pieces:
            if full:
                cols, i = self._row(page)
                cols[LO][i] = 0
                cols[HI][i] = page_bytes
                self._spill.pop(page, None)
            else:
                self._add_dirty(page, lo, hi)
        self.epoch_written.update([piece[0] for piece in pieces])
        counters = self.stats.counters
        counters["page_touches"] += touches
        if prefetched.size:
            counters["prefetch_hits"] += prefetched.size
        if reads:
            counters["reads"] += reads
            counters["read_bytes"] += read_bytes
        if writes:
            counters["writes"] += writes
            counters["write_bytes"] += write_bytes

    def read(self, addr: int, nbytes: int) -> np.ndarray | None:
        """A copy of the bytes (functional: later stores do not show in
        it) or just a touch of the pages (timing)."""
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8) if self.functional else None
        if addr < 0 or nbytes < 0:
            raise MemoryError_(f"negative address or span: {addr:#x}, {nbytes}")
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        self._touch(first, last)
        counters = self.stats.counters
        counters["reads"] += 1
        counters["read_bytes"] += nbytes
        if not self.functional:
            return None
        key = first >> CHUNK_SHIFT
        if key == last >> CHUNK_SHIFT:
            at = addr - (key << CHUNK_SHIFT) * page_bytes
            return self._table.chunks[key][DATA_FLAT][at:at + nbytes].copy()
        end = addr + nbytes
        pieces = []
        for cols, a, b, page in self._table.segments(first, last + 1):
            base = (page - a) * page_bytes  # the chunk's first byte
            s = max(addr, page * page_bytes) - base
            e = min(end, (page + b - a) * page_bytes) - base
            pieces.append(cols[DATA_FLAT][s:e])
        return np.concatenate(pieces)

    def write(self, addr: int, nbytes: int, data: np.ndarray | None,
              ordinary: bool = True) -> int:
        """Scatter bytes into resident pages; returns twins created.

        ``ordinary=True`` engages the multiple-writer machinery (twin on
        first write, dirty-range tracking); consistency-region writes pass
        ``ordinary=False`` because they propagate through the store log
        instead.
        """
        if nbytes == 0:
            return 0
        functional = self.functional
        if functional and data is not None and len(data) != nbytes:
            raise MemoryError_("write data length mismatch")
        if addr < 0 or nbytes < 0:
            raise MemoryError_(f"negative address or span: {addr:#x}, {nbytes}")
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        self._touch(first, last)
        twins = 0
        if functional:
            twins = self._store(addr, nbytes, data, ordinary)
        elif ordinary:
            end_off = addr + nbytes - last * page_bytes
            if first == last:
                self._add_dirty(first, addr - first * page_bytes, end_off)
            else:
                self._add_dirty(first, addr - first * page_bytes, page_bytes)
                self._add_dirty(last, 0, end_off)
                # The pages in between are dirty over their whole length:
                # whatever ranges they held merge into one full extent.
                for cols, a, b, _ in self._table.segments(first + 1, last):
                    cols[LO][a:b] = 0
                    cols[HI][a:b] = page_bytes
                if self._spill:
                    for page in [p for p in self._spill if first < p < last]:
                        del self._spill[page]
        counters = self.stats.counters
        if ordinary:
            self.epoch_written.update(range(first, last + 1))
        if twins:
            counters["twins_created"] += twins
        counters["writes"] += 1
        counters["write_bytes"] += nbytes
        return twins

    def _add_dirty(self, page: int, start: int, end: int) -> None:
        """``ByteRanges.add`` on the page's dirty state: extend the extent
        when [start, end) touches it, spill when it does not."""
        cols = self._table.chunks[page >> CHUNK_SHIFT]
        i = page & CHUNK_MASK
        hi = cols[HI].item(i)  # plain ints: NumPy scalars compare slowly
        if not hi:
            cols[LO][i] = start
            cols[HI][i] = end
        elif hi < 0:
            self._spill[page].add(start, end)
        else:
            lo = cols[LO].item(i)
            if start > hi or end < lo:
                self._spill[page] = ByteRanges(((lo, hi), (start, end)))
                cols[HI][i] = -1
            else:
                if start < lo:
                    cols[LO][i] = start
                if end > hi:
                    cols[HI][i] = end

    def _store(self, addr: int, nbytes: int, data, ordinary: bool) -> int:
        """Functional-mode store: one slice copy per chunk segment, after
        the twin upkeep of an ordinary store. A segment of clean pages
        snapshots its pre-image into the twin rows with one slice copy and
        starts each page's extent; a segment holding a dirty page walks its
        rows (:meth:`_upkeep`). Returns twins created."""
        page_bytes = self.layout.page_bytes
        twinned = self.use_twins
        end = addr + nbytes
        twins = 0
        for cols, a, b, page in self._table.segments(
                addr // page_bytes, (end - 1) // page_bytes + 1):
            base = (page - a) * page_bytes  # the chunk's first byte
            s = page * page_bytes
            if s < addr:
                s = addr
            e = (page + b - a) * page_bytes
            if e > end:
                e = end
            s -= base  # the segment is [s, e) of the chunk's flat views
            e -= base
            if ordinary or twinned:
                # Plain ints: NumPy scalars compare slowly. One row's
                # scalar read is cheaper than a slice.
                if b - a == 1:
                    his = (cols[HI].item(a),)
                    dirty = his[0]
                else:
                    his = cols[HI][a:b].tolist()
                    dirty = any(his)
            if ordinary:
                if not dirty:
                    if twinned:
                        cols[TWIN_FLAT][s:e] = cols[DATA_FLAT][s:e]
                        twins += b - a
                    if b - a > 1:
                        cols[LO][a:b] = 0
                        cols[HI][a:b] = page_bytes
                    cols[LO][a] = s - a * page_bytes
                    cols[HI][b - 1] = e - (b - 1) * page_bytes
                elif not (b - a == 1 and dirty > 0
                          and cols[LO].item(a) <= s - a * page_bytes
                          and e - a * page_bytes <= dirty):
                    # (A store inside one page's extent, the common
                    # rewrite, needs no upkeep.)
                    twins += self._upkeep(cols, a, b, page, s, e, his)
            if data is not None:
                at = s + base - addr  # where the segment starts in data
                cols[DATA_FLAT][s:e] = data[at:at + e - s]
                if not ordinary and twinned and dirty:
                    # Consistency-region stores propagate via the store
                    # log; mirroring them into the twin keeps them out of
                    # this thread's ordinary-region diff (shipping them
                    # there could overwrite other threads' CR updates at
                    # the home). Clean pages' twin bytes too: a twin byte
                    # outside the dirty ranges is never read.
                    cols[TWIN_FLAT][s:e] = data[at:at + e - s]
        return twins

    def _upkeep(self, cols, a: int, b: int, page: int, s: int, e: int,
                his) -> int:
        """The twin and dirty-state upkeep of an ordinary store over rows
        ``a:b`` of a chunk (``page`` is row ``a``'s page, ``his`` the rows'
        ``HI``), bytes ``[s, e)`` of its flat views, when some row is
        dirty: a clean row snapshots the bytes the store dirties and starts
        its extent, a dirty one grows or splits its dirty state,
        snapshotting only the bytes it newly dirties (those already dirty
        were captured by the write that dirtied them). A store inside the
        extent, the common rewrite, does neither. Returns twins created."""
        page_bytes = self.layout.page_bytes
        twin = cols[TWIN] if self.use_twins else None
        rows = cols[DATA]
        los = (cols[LO].item(a),) if b - a == 1 else cols[LO][a:b].tolist()
        twins = 0
        for i in range(a, b):
            off = s - i * page_bytes
            if off < 0:
                off = 0
            end_off = e - i * page_bytes
            if end_off > page_bytes:
                end_off = page_bytes
            hi = his[i - a]
            if not hi:
                if twin is not None:
                    twin[i, off:end_off] = rows[i, off:end_off]
                    twins += 1
                cols[LO][i] = off
                cols[HI][i] = end_off
                continue
            lo = los[i - a]
            if hi < 0 or off < lo or end_off > hi:
                p = page + i - a
                if twin is not None:
                    pre, buf = twin[i], rows[i]
                    for gs, ge in (self._spill[p].gaps_within(off, end_off)
                                   if hi < 0 else _outside(lo, hi, off, end_off)):
                        pre[gs:ge] = buf[gs:ge]
                self._add_dirty(p, off, end_off)
        return twins

    # ------------------------------------------------------------------
    # diffs & fine-grain updates
    # ------------------------------------------------------------------
    def _diff_of(self, page: int, cols, i: int, hi: int) -> PageDiff:
        """The pending diff of one dirty page, given its row and ``HI``."""
        if not self.use_twins:
            # Single-writer fallback: no twin exists, so the whole page is
            # the write-back unit (the classic DSM behaviour the paper's
            # multiple-writer protocol improves on).
            if self.functional:
                return PageDiff(page, spans=[(0, cols[DATA][i])])
            return PageDiff(page, spans=[(0, None)],
                            sizes=[self.layout.page_bytes])
        if not self.functional:  # nothing to diff against: sizes, no bytes
            if hi < 0:
                return PageDiff.from_ranges(page, self._spill[page])
            lo = cols[LO].item(i)
            return PageDiff.one_span(page, lo, hi - lo, None)
        ranges = self._spill[page] if hi < 0 else ((cols[LO].item(i), hi),)
        # A page rewritten with the bytes it held (most of a stencil's
        # interior) is not a span extraction: it ships the shared empty diff.
        pre, data = cols[TWIN][i], cols[DATA][i]
        for s, e in ranges:
            if pre[s:e].tobytes() != data[s:e].tobytes():
                return diff_spans(pre, data, ranges, page)
        return PageDiff.unchanged(page)

    def take_diffs(self, pages) -> list[PageDiff]:
        """Extract the pending diff of every resident-dirty member of
        ``pages`` (distinct; in their order) and mark it clean.

        The batch is walked in runs of consecutive pages inside one chunk,
        each run's ``HI`` read as one slice. With twins, a run's pages are
        tested for "unchanged" together (:meth:`_changed_rows`): a page
        whose extent equals its twin (most of a stencil's interior,
        rewritten with the bytes it held) gets the shared empty diff, one
        that does not goes through the span extraction. A spilled page,
        and every page in timing mode or without twins, goes through
        :meth:`_diff_of`. Counters flush once."""
        resident = self._resident
        chunks = self._table.chunks
        runs = []  # [cols, a, b, page]: rows a:b of cols hold page, page + 1, ...
        end = -1
        for page in pages:
            if page not in resident:
                continue
            if page == end and page & CHUNK_MASK:
                run[2] += 1
            else:
                i = page & CHUNK_MASK
                run = [chunks[page >> CHUNK_SHIFT], i, i + 1, page]
                runs += (run,)
            end = page + 1
        compare = self.functional and self.use_twins
        diffs = []
        nbytes = 0
        for cols, a, b, first in runs:
            his = (cols[HI].item(a),) if b - a == 1 else cols[HI][a:b].tolist()
            changed = self._changed_rows(cols, a, b, his) if compare else his
            for i, hi in enumerate(his, a):
                if not hi:
                    continue
                page = first + i - a
                if hi < 0 or not compare:
                    diff = self._diff_of(page, cols, i, hi)
                    if hi < 0:
                        del self._spill[page]
                elif changed[i - a]:
                    diff = diff_spans(cols[TWIN][i], cols[DATA][i],
                                      ((int(cols[LO][i]), hi),), page)
                else:
                    diff = PageDiff.unchanged(page)
                diffs += (diff,)
                nbytes += diff.payload_bytes
                cols[HI][i] = 0
        if diffs:
            counters = self.stats.counters
            counters["diffs_taken"] += len(diffs)
            counters["diff_bytes"] += nbytes
        return diffs

    def _changed_rows(self, cols, a: int, b: int, his: list) -> list:
        """Per row of ``a:b`` with one dirty extent (``HI`` values
        ``his``): does a byte inside the extent differ from the twin row?
        (Other rows' answers are unused.) One compare of the span from the
        first row's extent to the last one's answers a run that did not
        change; a run of several rows that did pays one masked compare of
        its rows."""
        page_bytes = self.layout.page_bytes
        s = a * page_bytes + (int(cols[LO][a]) if his[0] > 0 else 0)
        e = (b - 1) * page_bytes + (his[-1] if his[-1] > 0 else page_bytes)
        if cols[TWIN_FLAT][s:e].tobytes() == cols[DATA_FLAT][s:e].tobytes():
            return [False] * (b - a)
        if b - a == 1:
            return [True]
        at = self._offsets
        return ((cols[TWIN][a:b] != cols[DATA][a:b])
                & (at >= cols[LO][a:b][:, None])
                & (at < cols[HI][a:b][:, None])).any(1).tolist()

    def take_diff(self, page: int) -> PageDiff | None:
        """Extract the pending diff for one dirty page and mark it clean
        (:meth:`take_diffs` of one page, which must be resident)."""
        if page not in self._resident:
            raise MemoryError_(f"{self.name}: take_diff on non-resident page {page}")
        diffs = self.take_diffs((page,))
        return diffs[0] if diffs else None

    def take_diff_sizes(self, pages):
        """Timing-mode bulk variant of :meth:`take_diff` for a recall batch.

        Returns ``(dirty_pages, payload_bytes, wire_bytes)``: the dirty
        members of ``pages`` (in their given order) as a page vector, and
        sizes summed over them, with take_diff's exact side effects but
        none of the PageDiff objects: with no data to diff a span diff is
        pure sizes -- payload = dirty bytes, wire = payload + one span
        header per dirty range. Only valid with ``use_twins`` in timing
        mode (the caller gates on both).
        """
        table = self._table
        batch = pages if type(pages) is np.ndarray else page_vector(pages)
        hi = table.gather(HI, batch)
        dirty_pages = batch[hi != 0]
        if not dirty_pages.size:
            return dirty_pages, 0, 0
        single = hi > 0             # one extent each; the rest spilled
        n_ranges = int(np.add.reduce(single))
        payload = int(np.add.reduce(
            hi[single] - table.gather(LO, batch[single])))
        if n_ranges < dirty_pages.size:
            for page in dirty_pages.tolist():
                ranges = self._spill.pop(page, None)
                if ranges is not None:
                    payload += ranges.nbytes
                    n_ranges += len(ranges)
        table.scatter(HI, batch, 0)
        counters = self.stats.counters
        counters["diffs_taken"] += dirty_pages.size
        counters["diff_bytes"] += payload
        return (dirty_pages, payload,
                payload + PageDiff.SPAN_HEADER_BYTES * n_ranges)

    def dirty_page_ids(self) -> list[int]:
        return sorted(p for p in self._resident if self.is_dirty(p))

    def take_epoch_notices(self) -> np.ndarray:
        """Write notices for the ending epoch: pages ordinary-written since
        the previous barrier, as an ascending vector. Clears the set (pages
        may stay lazily dirty -- ownership in the directory keeps them
        readable by others)."""
        written = self.epoch_written
        if not written:
            return NO_PAGES
        notices = np.fromiter(written, np.int64, len(written))
        notices.sort()
        written.clear()
        return notices

    def apply_fine_grain(self, diffs: Iterable[PageDiff]) -> int:
        """Apply incoming fine-grained (consistency-region) updates to any
        resident copies; non-resident pages are skipped (they will fault to
        the already-updated home). Returns bytes applied."""
        applied = 0
        resident = self._resident
        chunks = self._table.chunks
        functional, twinned = self.functional, self.use_twins
        for diff in diffs:
            page = diff.page
            if page not in resident:
                continue
            if functional:
                cols = chunks[page >> CHUNK_SHIFT]
                i = page & CHUNK_MASK
                diff.apply_to(cols[DATA][i])
                if twinned and cols[HI][i]:
                    # Keep the twin in sync so these bytes don't reappear
                    # in the thread's own ordinary-region diff. The whole
                    # diff is stored, dirty or not: outside the dirty
                    # ranges the twin is never read, and a byte is
                    # snapshotted before it turns dirty.
                    diff._store(cols[TWIN][i])
            applied += diff.payload_bytes
        self.stats.counters["fine_grain_bytes"] += applied
        return applied

    def clear(self) -> None:
        self._table.chunks.clear()
        self._resident.clear()
        self._spill.clear()
