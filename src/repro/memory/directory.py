"""Page ownership directory.

Samhita's synchronization "moves only the minimum amount of data required":
a page dirtied by exactly one thread is *not* flushed at a barrier -- the
directory records that thread as the page's owner, and the home recalls the
diff only if someone else faults on the page (or the owner evicts it).
Multi-writer pages are merged eagerly at the barrier and ownership clears.

Ownership is one column of a :class:`~repro.memory.pagetable.PageTable`
(DESIGN.md "Page-id vectors"), so a barrier plan records, and a bulk serve
gathers, the owners of a whole page vector in a few array operations.
"""

from __future__ import annotations

import numpy as np

from repro.memory.pagetable import (CHUNK_MASK, CHUNK_SHIFT, PageTable,
                                    page_vector)
from repro.sim.stats import StatSet


class PageDirectory:
    """Maps lazily written-back pages to their owning thread.

    Also tracks *sharers* (threads that fetched a copy), for the eager
    write-invalidate (IVY-style) baseline only: it must know whom to
    invalidate on a write, RegC never asks, so the memory servers register
    sharers only under ``coherence="ivy"``. Sharer lists are conservative
    supersets -- a locally dropped copy may linger until the next protocol
    action touches it.
    """

    def __init__(self, name: str = "directory"):
        #: The owner column holds ``thread id + 1``; 0 (what a fresh chunk
        #: is filled with) means nobody owns the page.
        self._owners = PageTable((np.int32,))
        self._owned = 0
        self._sharers: dict[int, set[int]] = {}
        #: Failover indirection over the allocator's static home function:
        #: logical home index -> live server index. Empty until a failover
        #: runs, so the healthy path is one falsy check.
        self._home_remap: dict[int, int] = {}
        self.stats = StatSet(name)

    # -- home map (failover indirection) ---------------------------------
    def resolve_home(self, index: int) -> int:
        """Live server index for a logical (allocator-assigned) home."""
        remap = self._home_remap
        if not remap:
            return index
        return remap.get(index, index)

    def remap_home(self, dead: int, promoted: int) -> None:
        """Point every page logically homed on ``dead`` at ``promoted``.

        Earlier remaps that resolved *to* the newly dead server are
        rewritten too, so chained failures stay transitive-free (a resolve
        is always a single hop).
        """
        for logical, target in list(self._home_remap.items()):
            if target == dead:
                self._home_remap[logical] = promoted
        self._home_remap[dead] = promoted
        self.stats.counters["home_remaps"] += 1

    # -- sharers (IVY only) ----------------------------------------------
    def add_sharer(self, page: int, thread_id: int) -> None:
        sharers = self._sharers.get(page)
        if sharers is None:
            self._sharers[page] = {thread_id}
        else:
            sharers.add(thread_id)

    def add_sharers(self, pages, thread_id: int) -> None:
        """:meth:`add_sharer` for every page of a batch-served fetch."""
        for page in page_vector(pages).tolist():
            self.add_sharer(page, thread_id)

    def remove_sharer(self, page: int, thread_id: int) -> None:
        sharers = self._sharers.get(page)
        if sharers is not None:
            sharers.discard(thread_id)
            if not sharers:
                del self._sharers[page]

    def sharers_of(self, page: int) -> set[int]:
        return set(self._sharers.get(page, ()))

    # -- owners: one page ------------------------------------------------
    def owner_of(self, page: int) -> int | None:
        cols = self._owners.chunks.get(page >> CHUNK_SHIFT)
        if cols is None:
            return None
        owner = cols[0].item(page & CHUNK_MASK)  # a plain int, not a scalar
        return owner - 1 if owner else None

    def record_owner(self, page: int, thread_id: int) -> None:
        column = self._owners.chunk(page >> CHUNK_SHIFT)[0]
        if not column[page & CHUNK_MASK]:
            self._owned += 1
        column[page & CHUNK_MASK] = thread_id + 1
        self.stats.counters["owners_recorded"] += 1

    def clear_owner(self, page: int) -> None:
        cols = self._owners.chunks.get(page >> CHUNK_SHIFT)
        if cols is not None and cols[0][page & CHUNK_MASK]:
            cols[0][page & CHUNK_MASK] = 0
            self._owned -= 1
            self.stats.counters["owners_cleared"] += 1

    # -- owners: a page vector -------------------------------------------
    def owners_of(self, pages: np.ndarray,
                  but: int | None = None) -> np.ndarray:
        """The owner of each page of a vector, in order; ``-1`` where there
        is none -- or where it is ``but``: a fetch by thread *t* asks whom
        it must recall from, and *t* itself is nobody."""
        if not self._owned:
            return np.zeros(pages.size, dtype=np.int64) - 1
        owners = self._owners.gather(0, pages)
        if but is not None:
            owners[owners == but + 1] = 0
        owners -= 1
        return owners

    def record_owners(self, pages, thread_ids) -> None:
        """Make ``thread_ids`` (one id, or a vector aligned with ``pages``)
        the owners of the distinct ``pages`` -- a barrier plan assigns every
        single-writer page of its round in one call."""
        pages = pages if type(pages) is np.ndarray else page_vector(pages)
        n = pages.size
        if not n:
            return
        table = self._owners
        self._owned += n - int(np.add.reduce(table.gather(0, pages) != 0))
        table.scatter(0, pages, thread_ids + 1, create=True)
        self.stats.counters["owners_recorded"] += n

    def clear_owners(self, pages) -> None:
        """Drop whatever ownership the distinct ``pages`` carry."""
        if not self._owned:
            return
        pages = pages if type(pages) is np.ndarray else page_vector(pages)
        table = self._owners
        owned = int(np.add.reduce(table.gather(0, pages) != 0))
        if owned:
            table.scatter(0, pages, 0)
            self._owned -= owned
            self.stats.counters["owners_cleared"] += owned

    def owned_by(self, thread_id: int | None = None) -> list[int]:
        """Pages owned by ``thread_id`` (by anyone, if None), ascending."""
        found = []
        for cols, rows, pages in self._owners.live_rows(0):
            if thread_id is not None:
                pages = pages[cols[0][rows] == thread_id + 1]
            found.extend(pages.tolist())
        return sorted(found)

    def __len__(self) -> int:
        return self._owned

    def __contains__(self, page: int) -> bool:
        return self.owner_of(page) is not None
