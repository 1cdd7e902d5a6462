"""Memory-server page frames.

A :class:`BackingStore` holds the authoritative copy of every page homed on
one memory server. A frame is one row of a page table (existence, version);
functional mode adds the frame's bytes -- a row of its chunk's lazily zeroed
byte array, so creating a frame allocates nothing -- and timing mode
carries no data, keeping large sweeps cheap while versioning still works.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryError_
from repro.memory.diff import PageDiff
from repro.memory.layout import MemoryLayout
from repro.memory.pagetable import (CHUNK_MASK, CHUNK_SHIFT, PageTable,
                                    page_vector)
from repro.sim.stats import StatSet

#: Columns of a frame chunk. ``VERSION`` counts mutations, ``LIVE`` marks a
#: frame that exists, ``DATA`` (page bytes, one row per frame) exists in
#: functional mode only.
VERSION, LIVE, DATA = range(3)


class BackingStore:
    """Page frames homed on one memory server, as rows of a
    :class:`~repro.memory.pagetable.PageTable`."""

    def __init__(self, layout: MemoryLayout, functional: bool = True, name: str = "backing"):
        self.layout = layout
        self.functional = functional
        self.name = name
        self._table = PageTable((
            np.int64, np.bool_, layout.page_bytes if functional else None))
        self._frames = 0
        self.stats = StatSet(name)

    def ensure(self, page: int):
        """``(cols, i)``: the row of the page's frame, created zero-filled
        on first touch."""
        try:
            cols = self._table.chunks[page >> CHUNK_SHIFT]
        except KeyError:
            cols = self._table.chunk(page >> CHUNK_SHIFT)
        i = page & CHUNK_MASK
        if not cols[LIVE][i]:
            self._create(cols, i)
        return cols, i

    def _create(self, cols, i: int) -> None:
        """Make row ``i`` of ``cols`` a frame (its bytes are the row's
        zeros)."""
        cols[LIVE][i] = True
        self._frames += 1
        self.stats.incr("frames_created")

    def _touch_many(self, pages, bump: bool) -> None:
        """Bulk frame creation (+ one version bump each with ``bump``) for
        timing-mode batches of distinct pages: no bytes exist, only
        existence and versions."""
        table = self._table
        pages = pages if type(pages) is np.ndarray else page_vector(pages)
        created = pages.size - int(np.add.reduce(table.gather(LIVE, pages)))
        if created:
            table.scatter(LIVE, pages, True, create=True)
            self._frames += created
            self.stats.counters["frames_created"] += created
        if bump:
            table.scatter(VERSION, pages, table.gather(VERSION, pages) + 1)

    def read_page(self, page: int) -> np.ndarray | None:
        """A *copy* of the page's bytes (what goes over the wire)."""
        self.stats.counters["page_reads"] += 1
        cols, i = self.ensure(page)
        return cols[DATA][i].copy() if self.functional else None

    def apply_diffs(self, diffs) -> None:
        """Merge writers' diffs into the authoritative pages, in order. A
        diff without spans (an unchanged page's) bumps the version and
        writes no byte."""
        functional = self.functional
        chunks = self._table.chunks
        nbytes = 0
        for diff in diffs:
            # The frame's row in place (created if missing, as by ensure).
            page = diff.page
            key, i = page >> CHUNK_SHIFT, page & CHUNK_MASK
            cols = chunks[key] if key in chunks else self._table.chunk(key)
            if not cols[LIVE][i]:
                self._create(cols, i)
            if functional and diff.n_spans:
                diff.apply_to(cols[DATA][i])
            cols[VERSION][i] += 1
            nbytes += diff.payload_bytes
        if diffs:
            counters = self.stats.counters
            counters["diffs_applied"] += len(diffs)
            counters["diff_bytes"] += nbytes

    def apply_diff(self, diff: PageDiff) -> None:
        """Merge one writer's diff (:meth:`apply_diffs` of one)."""
        self.apply_diffs((diff,))

    def apply_diff_sizes(self, pages, payload_bytes: int) -> None:
        """Timing-mode bulk twin of :meth:`apply_diff` for a recall batch:
        the frame/version/counter side effects of one diff per (distinct)
        page, without PageDiff objects (no bytes to merge; the caller gates
        on no write-ahead log needing them)."""
        counters = self.stats.counters
        counters["diffs_applied"] += len(pages)
        counters["diff_bytes"] += payload_bytes
        self._touch_many(pages, bump=True)

    def serve_pages_timing(self, pages: list[int]) -> None:
        """Timing-mode bulk read touch: the ``read_page`` side effects
        (frame existence + read counter) for a whole served batch."""
        self.stats.counters["page_reads"] += len(pages)
        self._touch_many(pages, bump=False)

    def serve_pages(self, pages: list[int]) -> dict:
        """Functional bulk :meth:`read_page` of a served batch:
        ``{page: copy}``. Each missing frame is created in place and the
        copies are rows of one gather per chunk, so a served page costs no
        call."""
        table = self._table
        chunks = table.chunks
        created = 0
        last = None
        walked = 0  # chunks entered, counted per change of chunk
        for page in pages:
            key, i = page >> CHUNK_SHIFT, page & CHUNK_MASK
            if key != last:
                last = key
                walked += 1
                cols = chunks[key] if key in chunks else table.chunk(key)
                live = cols[LIVE]
            if not live[i]:  # _create, inline
                live[i] = True
                created += 1
        counters = self.stats.counters
        if created:
            self._frames += created
            counters["frames_created"] += created
        counters["page_reads"] += len(pages)
        # ``take`` copies rows at half the cost of an indexing expression.
        if walked == 1:
            rows = [page & CHUNK_MASK for page in pages]
            return dict(zip(pages, cols[DATA].take(rows, axis=0)))
        data = {}
        for cols, rows, where in table.groups(page_vector(pages)):
            data.update(zip(pages[where], cols[DATA].take(rows, axis=0)))
        return data

    def read_range(self, addr: int, nbytes: int) -> np.ndarray | None:
        """Gather an arbitrary byte range (used by the SMP baseline, which
        accesses memory directly rather than through a software cache)."""
        if not self.functional:
            return None
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        pieces = []
        for page, start, end in self.layout.page_slices(addr, nbytes):
            cols, i = self.ensure(page)
            pieces.append(cols[DATA][i][start:end])
        if len(pieces) == 1:
            return pieces[0].copy()
        return np.concatenate(pieces)

    def write_range(self, addr: int, nbytes: int, data: np.ndarray | None) -> None:
        """Scatter an arbitrary byte range (SMP baseline direct store)."""
        if nbytes == 0:
            return
        if self.functional and data is not None and len(data) != nbytes:
            raise MemoryError_("write_range data length mismatch")
        if not self.functional:
            # Timing mode: only frame existence and versions matter
            # (SMP-baseline stores span thousands of pages).
            self._touch_many(self.layout.pages_spanning(addr, nbytes), bump=True)
            return
        consumed = 0
        for page, start, end in self.layout.page_slices(addr, nbytes):
            cols, i = self.ensure(page)
            if data is not None:
                cols[DATA][i][start:end] = data[consumed:consumed + end - start]
            consumed += end - start
            cols[VERSION][i] += 1

    @property
    def resident_pages(self) -> int:
        return self._frames
