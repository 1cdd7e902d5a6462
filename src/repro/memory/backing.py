"""Memory-server page frames.

A :class:`BackingStore` holds the authoritative copy of every page homed on
one memory server. A frame is one row of a page table (existence, version,
corruption marker); functional mode adds the frame's bytes -- a row of its
chunk's lazily zeroed byte array, so creating a frame allocates nothing --
and timing mode carries no data, keeping large sweeps cheap while
versioning still works.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import MemoryError_
from repro.memory.diff import PageDiff
from repro.memory.layout import MemoryLayout
from repro.memory.pagetable import (CHUNK_MASK, CHUNK_SHIFT, PageTable,
                                    page_vector)
from repro.sim.stats import StatSet

#: Timing-mode corruption sentinel: with no bytes to checksum, a rotted
#: frame ships this instead of its version so the receiver's check fires.
CRC_CORRUPT = -1

#: ``CRC`` column value of a frame whose checksum is not computed since its
#: last clean mutation (a CRC32 is never negative).
NO_CRC = -1


def payload_crc_ok(data: np.ndarray | None, crc: int | None) -> bool:
    """End-to-end check of a received page against its shipped checksum.

    ``crc=None`` means integrity is off (nothing to verify). In timing mode
    there are no bytes, so the check degrades to the corruption sentinel.
    """
    if crc is None:
        return True
    if data is None:
        return crc != CRC_CORRUPT
    return (zlib.crc32(data) & 0xFFFFFFFF) == crc


#: Columns of a frame chunk. ``VERSION`` counts mutations, ``LIVE`` marks a
#: frame that exists, ``CORRUPT`` is the bitrot marker: the stored CRC is
#: deliberately stale (it predates the rot), so verification keeps failing
#: until a replica repair rebuilds the frame -- never cleared by apply_diff,
#: recomputing a checksum over rotted bytes would launder the corruption.
#: ``DATA`` (page bytes, one row per frame) and ``CRC`` (lazily computed
#: CRC32, :data:`NO_CRC` until then) exist in functional mode only.
VERSION, LIVE, CORRUPT, DATA, CRC = range(5)


class BackingStore:
    """Page frames homed on one memory server, as rows of a
    :class:`~repro.memory.pagetable.PageTable`."""

    def __init__(self, layout: MemoryLayout, functional: bool = True, name: str = "backing"):
        self.layout = layout
        self.functional = functional
        self.name = name
        self._table = PageTable((
            np.int64, np.bool_, np.bool_,
            layout.page_bytes if functional else None,
            np.int64 if functional else None))
        self._frames = 0
        #: End-to-end checksums; armed by the system when replication is on
        #: (a detected corruption is only survivable with a replica to
        #: repair from). Off, the mutation paths skip all CRC bookkeeping.
        self.integrity = False
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
        if self.functional:
            cols[CRC][i] = NO_CRC
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

    def live_pages(self) -> list[int]:
        """Every page that has a frame, ascending."""
        return sorted(p for _, _, pages in self._table.live_rows(LIVE)
                      for p in pages.tolist())

    def peek(self, page: int) -> np.ndarray | None:
        """The frame's bytes in place (no copy, no counters); None in
        timing mode."""
        cols, i = self.ensure(page)
        return cols[DATA][i] if self.functional else None

    def read_page(self, page: int) -> np.ndarray | None:
        """A *copy* of the page's bytes (what goes over the wire)."""
        self.stats.counters["page_reads"] += 1
        cols, i = self.ensure(page)
        return cols[DATA][i].copy() if self.functional else None

    def write_page(self, page: int, data: np.ndarray | None) -> None:
        """Replace the page's contents wholesale."""
        self.stats.incr("page_writes")
        cols, i = self.ensure(page)
        if self.functional:
            if data is None:
                raise MemoryError_("functional store requires data on write_page")
            if data.shape[0] != self.layout.page_bytes:
                raise MemoryError_("write_page size mismatch")
            cols[DATA][i] = data
        cols[VERSION][i] += 1
        if self.integrity:
            # Wholesale replacement overwrites any rot.
            cols[CORRUPT][i] = False
            if self.functional:
                cols[CRC][i] = NO_CRC

    def apply_diffs(self, diffs) -> None:
        """Merge writers' diffs into the authoritative pages, in order. A
        diff without spans (an unchanged page's) bumps the version and
        writes no byte, so the frame's cached checksum stays valid."""
        functional = self.functional
        integrity = self.integrity
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
                if integrity and not cols[CORRUPT][i]:
                    cols[CRC][i] = NO_CRC
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
        on integrity being off)."""
        counters = self.stats.counters
        counters["diffs_applied"] += len(pages)
        counters["diff_bytes"] += payload_bytes
        self._touch_many(pages, bump=True)

    def serve_pages_timing(self, pages: list[int]) -> None:
        """Timing-mode bulk read touch: the ``read_page`` side effects
        (frame existence + read counter) for a whole served batch."""
        self.stats.counters["page_reads"] += len(pages)
        self._touch_many(pages, bump=False)

    def serve_pages(self, pages: list[int]):
        """Bulk :meth:`read_page` (+ :meth:`page_crc` with integrity armed)
        of a served batch: ``({page: copy}, {page: crc} or None)``. Each
        frame's row is read in place (a missing frame is created) and the
        copies are rows of one gather per chunk, so a served page costs no
        call. The copy is ``None`` in timing mode."""
        functional = self.functional
        table = self._table
        chunks = table.chunks
        crcs = {} if self.integrity else None
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
                if functional:
                    cols[CRC][i] = NO_CRC
                created += 1
            if crcs is not None:  # page_crc, inline
                if not functional:
                    crc = CRC_CORRUPT if cols[CORRUPT][i] else int(cols[VERSION][i])
                else:
                    crc = int(cols[CRC][i])
                    if crc == NO_CRC:
                        crc = cols[CRC][i] = zlib.crc32(cols[DATA][i]) & 0xFFFFFFFF
                crcs[page] = crc
        counters = self.stats.counters
        if created:
            self._frames += created
            counters["frames_created"] += created
        counters["page_reads"] += len(pages)
        if not functional:
            return dict.fromkeys(pages), crcs
        # ``take`` copies rows at half the cost of an indexing expression.
        if walked == 1:
            rows = [page & CHUNK_MASK for page in pages]
            return dict(zip(pages, cols[DATA].take(rows, axis=0))), crcs
        data = {}
        for cols, rows, where in table.groups(page_vector(pages)):
            data.update(zip(pages[where], cols[DATA].take(rows, axis=0)))
        return data, crcs

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

    # -- end-to-end integrity (replication armed) ------------------------
    def page_crc(self, page: int) -> int:
        """The checksum shipped with a served page.

        Functional mode: CRC32 of the stored bytes, computed lazily and
        cached until the next clean mutation. A rotted frame's cached CRC
        is deliberately stale, so the receiver's check fails. Timing mode:
        the frame version, with :data:`CRC_CORRUPT` standing in when the
        frame is rotted (no bytes exist to checksum).
        """
        cols, i = self.ensure(page)
        if not self.functional:
            return CRC_CORRUPT if cols[CORRUPT][i] else int(cols[VERSION][i])
        if cols[CRC][i] == NO_CRC:
            cols[CRC][i] = zlib.crc32(cols[DATA][i]) & 0xFFFFFFFF
        return int(cols[CRC][i])

    def corrupt_page(self, page: int) -> None:
        """Inject bitrot: flip a stored byte WITHOUT refreshing the CRC."""
        cols, i = self.ensure(page)
        if self.functional:
            self.page_crc(page)  # pin the pre-rot checksum
            cols[DATA][i, 0] ^= 0xFF
        cols[CORRUPT][i] = True
        self.stats.counters["pages_rotted"] += 1

    def restore_page(self, page: int, data: np.ndarray | None) -> None:
        """Replace a rotted frame with a replica's clean copy."""
        cols, i = self.ensure(page)
        if self.functional:
            if data is not None:
                cols[DATA][i] = data
            cols[CRC][i] = NO_CRC
        cols[VERSION][i] += 1
        cols[CORRUPT][i] = False
        self.stats.counters["pages_restored"] += 1

    def version_of(self, page: int) -> int:
        cols = self._table.chunks.get(page >> CHUNK_SHIFT)
        return int(cols[VERSION][page & CHUNK_MASK]) if cols is not None else 0

    @property
    def resident_pages(self) -> int:
        return self._frames

    @property
    def resident_bytes(self) -> int:
        return self._frames * self.layout.page_bytes
