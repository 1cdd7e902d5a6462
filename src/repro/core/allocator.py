"""The three-strategy Samhita memory allocator (§II).

1. **Arena** -- small allocations are served thread-locally from per-thread
   arenas, with no manager round-trip and no inter-thread false sharing
   (arena chunks are page-aligned and owned by one thread).
2. **Shared zone** -- medium allocations go through the manager and are
   carved page-aligned out of a shared zone on one memory server.
3. **Striped** -- large allocations are striped, cache-line by cache-line,
   across all memory servers "for reducing hot spots".

The allocator is pure state; communication costs (the RPC for strategies 2/3
and arena refills) are charged by the caller (compute server -> manager).
Addresses never recycle (bump allocation); ``free`` validates and records.

The address space is cut into one slice of ``SHARD_SLICE_PAGES`` pages per
manager shard (``config.manager_shards``). Thread *t* allocates in slice
``t % n``, so every page maps back to the shard that serves its slice with
one divide (:func:`shard_of_page`); home lookups are global.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

from repro.errors import AllocationError, MemoryError_
from repro.core.params import SamhitaConfig
from repro.sim.stats import StatSet

#: Pages per shard address slice (1 TiB of 4 KiB pages). Slice *k* is
#: pages [k * SHARD_SLICE_PAGES, (k+1) * SHARD_SLICE_PAGES); the slice of
#: any page is one integer divide.
SHARD_SLICE_PAGES = 1 << 28

#: Allocations at or below this size come from the per-thread arena.
ARENA_MAX_ALLOC = 64 << 10
#: Arena refill chunk size (one manager RPC buys this much).
ARENA_CHUNK_BYTES = 256 << 10
#: Allocations at or above this size stripe across memory servers.
STRIPE_THRESHOLD = 1 << 20


def shard_of_page(page: int, n_shards: int) -> int:
    """Shard whose address slice contains ``page``."""
    return min(page // SHARD_SLICE_PAGES, n_shards - 1)


class AllocationKind(Enum):
    ARENA = "arena"
    SHARED_ZONE = "shared_zone"
    STRIPED = "striped"


@dataclass
class Allocation:
    addr: int
    size: int
    kind: AllocationKind
    tid: int | None  # owning thread for arena allocations
    freed: bool = False


@dataclass
class _Region:
    """A page-aligned extent with a home-assignment rule."""

    start_page: int
    n_pages: int
    striped: bool
    server: int          # fixed home when not striped
    n_servers: int       # stripe width when striped
    base_line: int       # first line index, for stripe arithmetic

    def home_of(self, page: int, pages_per_line: int) -> int:
        if not self.striped:
            return self.server
        line = page // pages_per_line
        return (line - self.base_line) % self.n_servers


class _Arena:
    """One thread's local allocation arena."""

    __slots__ = ("base", "capacity", "used")

    def __init__(self, base: int, capacity: int):
        self.base = base
        self.capacity = capacity
        self.used = 0

    def try_alloc(self, size: int, align: int = 8) -> int | None:
        offset = (self.used + align - 1) & ~(align - 1)
        if offset + size > self.capacity:
            return None
        self.used = offset + size
        return self.base + offset


class SamhitaAllocator:
    """Global-address-space allocator shared by every manager shard."""

    def __init__(self, config: SamhitaConfig):
        self.config = config
        self.layout = config.layout
        #: Address slices: thread t allocates in slice ``t % n``, an
        #: allocation no thread asked for in slice 0.
        self._n_slices = n = config.manager_shards
        #: One bump pointer per slice; each slice's first page is reserved
        #: (null analogue).
        self._next_page = list(range(1, n * SHARD_SLICE_PAGES,
                                     SHARD_SLICE_PAGES))
        #: Per-slice shared-zone round-robin over the memory servers.
        self._zone_rr = [0] * n
        self._arenas: dict[int, _Arena] = {}
        self._regions: list[_Region] = []
        self._region_starts: list[int] = []
        #: page -> home-server memo. Safe because addresses never recycle:
        #: once a page belongs to a region its home can never change (free()
        #: only marks the allocation, it never unmaps the extent). Misses
        #: are NOT cached -- an unallocated page may be carved later.
        self._home_cache: dict[int, int] = {}
        self.allocations: dict[int, Allocation] = {}
        self.stats = StatSet("allocator")

    # ------------------------------------------------------------------
    # strategy selection
    # ------------------------------------------------------------------
    def classify(self, size: int) -> AllocationKind:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        if size <= ARENA_MAX_ALLOC:
            return AllocationKind.ARENA
        if size < STRIPE_THRESHOLD:
            return AllocationKind.SHARED_ZONE
        return AllocationKind.STRIPED

    # ------------------------------------------------------------------
    # page extents and homes
    # ------------------------------------------------------------------
    def _carve(self, nbytes: int, striped: bool, server: int,
               slice_: int) -> _Region:
        pages = max(1, (nbytes + self.layout.page_bytes - 1) // self.layout.page_bytes)
        # Every region starts on a cache-line boundary so no fetch unit ever
        # spans two regions (and hence two memory servers); striped regions
        # additionally round their extent to whole lines so the stripe
        # arithmetic maps each line to exactly one server.
        ppl = self.layout.pages_per_line
        start = ((self._next_page[slice_] + ppl - 1) // ppl) * ppl
        if striped:
            pages = ((pages + ppl - 1) // ppl) * ppl
        region = _Region(
            start_page=start,
            n_pages=pages,
            striped=striped,
            server=server,
            n_servers=self.config.n_memory_servers,
            base_line=start // self.layout.pages_per_line,
        )
        self._next_page[slice_] = start + pages
        index = bisect.bisect(self._region_starts, region.start_page)
        self._region_starts.insert(index, region.start_page)
        self._regions.insert(index, region)
        return region

    def home_of_page(self, page: int) -> int:
        """Memory-server index that homes ``page``."""
        home = self._home_cache.get(page)
        if home is not None:
            return home
        index = bisect.bisect(self._region_starts, page) - 1
        if index >= 0:
            region = self._regions[index]
            if region.start_page <= page < region.start_page + region.n_pages:
                home = region.home_of(page, self.layout.pages_per_line)
                self._home_cache[page] = home
                return home
        raise MemoryError_(f"page {page} is not part of any allocation")

    def homes_of(self, pages: list[int]) -> list[int]:
        """:meth:`home_of_page` of each page of a list (a trip's pages)."""
        cache = self._home_cache
        try:
            return [cache[page] for page in pages]
        except KeyError:  # some page is looked up for the first time
            return [self.home_of_page(page) for page in pages]

    def home_of_line(self, line: int) -> int:
        return self.home_of_page(line * self.layout.pages_per_line)

    def allocated_span(self, page: int) -> tuple[int, int] | None:
        """``(start, end)`` page extent of the region containing ``page``,
        or None if the page is unallocated. A non-raising bulk-filter
        primitive: one bisect answers residency for a whole contiguous run
        (regions never unmap, so a returned span stays valid forever)."""
        index = bisect.bisect(self._region_starts, page) - 1
        if index >= 0:
            region = self._regions[index]
            end = region.start_page + region.n_pages
            if region.start_page <= page < end:
                return region.start_page, end
        return None

    # ------------------------------------------------------------------
    # thread-local arena path (strategy 1)
    # ------------------------------------------------------------------
    def arena_alloc(self, tid: int, size: int) -> int | None:
        """Thread-local allocation; ``None`` means the arena needs a refill
        (which costs one manager RPC, charged by the caller)."""
        arena = self._arenas.get(tid)
        if arena is None:
            return None
        addr = arena.try_alloc(size)
        if addr is None:
            return None
        self._record(addr, size, AllocationKind.ARENA, tid)
        self.stats.incr("arena_allocs")
        return addr

    def refill_arena(self, tid: int, min_size: int) -> None:
        """Manager-side: hand the thread a fresh page-aligned arena chunk."""
        chunk = max(ARENA_CHUNK_BYTES, self.layout.align_up(min_size))
        server = tid % self.config.n_memory_servers
        region = self._carve(chunk, striped=False, server=server,
                             slice_=tid % self._n_slices)
        self._arenas[tid] = _Arena(self.layout.page_addr(region.start_page), chunk)
        self.stats.incr("arena_refills")

    # ------------------------------------------------------------------
    # manager paths (strategies 2 and 3)
    # ------------------------------------------------------------------
    def shared_alloc(self, size: int, tid: int | None = None) -> int:
        """Medium allocation from the shared zone (page-aligned)."""
        slice_ = 0 if tid is None else tid % self._n_slices
        server = self._zone_rr[slice_] % self.config.n_memory_servers
        self._zone_rr[slice_] += 1
        region = self._carve(size, striped=False, server=server, slice_=slice_)
        addr = self.layout.page_addr(region.start_page)
        self._record(addr, size, AllocationKind.SHARED_ZONE, tid)
        self.stats.incr("shared_allocs")
        return addr

    def striped_alloc(self, size: int, tid: int | None = None) -> int:
        """Large allocation striped line-by-line across all memory servers."""
        slice_ = 0 if tid is None else tid % self._n_slices
        region = self._carve(size, striped=True, server=0, slice_=slice_)
        addr = self.layout.page_addr(region.start_page)
        self._record(addr, size, AllocationKind.STRIPED, tid)
        self.stats.incr("striped_allocs")
        return addr

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _record(self, addr: int, size: int, kind: AllocationKind, tid: int | None) -> None:
        self.allocations[addr] = Allocation(addr, size, kind, tid)
        self.stats.incr("allocated_bytes", size)

    def free(self, addr: int) -> None:
        alloc = self.allocations.get(addr)
        if alloc is None:
            raise AllocationError(f"free of unallocated address {addr:#x}")
        if alloc.freed:
            raise AllocationError(f"double free of address {addr:#x}")
        alloc.freed = True
        self.stats.incr("frees")

    def allocation_at(self, addr: int) -> Allocation | None:
        return self.allocations.get(addr)

    @property
    def total_pages(self) -> int:
        """The highest bump pointer: one past the last page handed out."""
        return max(self._next_page)
