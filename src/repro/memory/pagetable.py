"""Sparse struct-of-arrays page state.

Per-page bookkeeping (the software cache's LRU ticks and dirty extents, a
memory server's frame versions) and, in functional mode, the page bytes
themselves live in *columns* -- one array per field, indexed by page -- so
an operation on a span or a batch of pages is a few array operations
instead of a Python object per page. A byte column is one
``(CHUNK_PAGES, page_bytes)`` uint8 array per chunk: a page's bytes are a
row of it, a batch of pages is a fancy index, and a span of pages is a
slice of the flat view the chunk keeps beside it.

The table is two-level: fixed-size chunks keyed by ``page >> CHUNK_SHIFT``,
created on first touch. Memory is therefore O(pages ever touched), not
O(capacity) and not O(highest page number) -- the sharded control plane
hands out pages from 2^28-page slices -- and a span inside one chunk is a
plain slice of each column.
"""

from __future__ import annotations

import mmap

import numpy as np

#: Pages per chunk (256). Small enough that a cache holding a handful of
#: pages costs ~3 KB per region it touches (a 64-thread run builds 64 such
#: caches; at 512 the suite's sync_storm peak RSS rose 1.4%), large enough
#: that the 74-page spans of the Jacobi campaign mostly stay in one chunk
#: (512 buys ~1% more smoke wall clock, 128 costs ~8%).
CHUNK_SHIFT = 8
CHUNK_PAGES = 1 << CHUNK_SHIFT
CHUNK_MASK = CHUNK_PAGES - 1

#: :meth:`PageTable.gather` / :meth:`PageTable.scatter` walk batches
#: shorter than this page by page: splitting a batch into per-chunk index
#: arrays costs ~4 us however few pages there are, a page ~0.2 us.
NARROW = 16

#: A narrow batch of at least this many pages inside one chunk is one
#: ``take`` / ``put`` (a column is one chunk long: ``mode="wrap"`` is the
#: row mask) instead of a walk; below it, the walk is faster.
ONE_CHUNK = 8

#: The empty page vector.
NO_PAGES = np.empty(0, dtype=np.int64)


def page_vector(pages) -> np.ndarray:
    """A collection of page ids as an ``int64`` vector (a vector passes
    through untouched)."""
    if isinstance(pages, np.ndarray):
        return pages
    return np.fromiter(pages, np.int64, len(pages))


def byte_rows(width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, flat)``: a zeroed ``(CHUNK_PAGES, width)`` uint8 array and
    its flat view. The memory is a private anonymous mapping, so it is
    zeroed lazily by the OS -- a row costs memory once it is written, never at
    creation -- and a row of a 4 KiB page is exactly one OS page."""
    flat = np.frombuffer(
        mmap.mmap(-1, CHUNK_PAGES * width, flags=mmap.MAP_PRIVATE), np.uint8)
    return flat.reshape(CHUNK_PAGES, width), flat


class PageTable:
    """Chunked columns. A chunk is a tuple with one entry per column, then
    the flat view of each byte column, in column order.

    ``columns`` gives each column's kind: a NumPy dtype (zero-filled
    array), an ``int`` (a byte column of rows that wide, see
    :func:`byte_rows`) or ``None`` (column absent in this mode; the chunk
    holds ``None`` in its place).
    """

    __slots__ = ("_columns", "_byte_columns", "chunks")

    def __init__(self, columns):
        self._columns = tuple(columns)
        self._byte_columns = [k for k, kind in enumerate(self._columns)
                              if type(kind) is int]
        self.chunks: dict[int, tuple] = {}

    def chunk(self, key: int) -> tuple:
        """The chunk ``key``, created zeroed on first touch."""
        cols = self.chunks.get(key)
        if cols is None:
            cols = [None if kind is None
                    else byte_rows(kind) if type(kind) is int
                    else np.zeros(CHUNK_PAGES, dtype=kind)
                    for kind in self._columns]
            flats = []
            for k in self._byte_columns:
                cols[k], flat = cols[k]
                flats += (flat,)
            cols = self.chunks[key] = (*cols, *flats)
        return cols

    def segments(self, first: int, stop: int) -> list:
        """Cover pages ``[first, stop)`` chunk by chunk: a list of
        ``(cols, a, b, page)`` where ``cols[k][a:b]`` are the rows of pages
        ``page .. page + (b - a)``. ``cols`` is None for a chunk that does
        not exist. A span nearly always sits in one chunk, so building the
        list makes no call per segment (``in`` + subscript, not ``.get``
        or ``try``: no slower for a chunk that exists or one that does
        not)."""
        chunks = self.chunks
        out = []
        while first < stop:
            key = first >> CHUNK_SHIFT
            a = first & CHUNK_MASK
            b = a + stop - first
            if b > CHUNK_PAGES:
                b = CHUNK_PAGES
            out += ((chunks[key] if key in chunks else None, a, b, first),)
            first += b - a
        return out

    def groups(self, pages: np.ndarray, create: bool = False):
        """Split an arbitrary page array into maximal runs that stay inside
        one chunk: yields ``(cols, rows, where)`` with ``rows`` the in-chunk
        indices and ``where`` the slice of ``pages`` they came from (input
        order is preserved; sorted batches yield one run per chunk)."""
        if not len(pages):
            return
        keys = pages >> CHUNK_SHIFT
        rows = pages & CHUNK_MASK
        cuts = (keys[1:] != keys[:-1]).nonzero()[0] + 1
        chunks = self.chunks
        start = 0
        for stop in (*cuts.tolist(), len(pages)):
            key = int(keys[start])
            yield ((self.chunk(key) if create else chunks.get(key)),
                   rows[start:stop], slice(start, stop))
            start = stop

    def gather(self, column: int, pages: np.ndarray) -> np.ndarray:
        """``column`` at each of ``pages``, in order (0 where no chunk)."""
        n = pages.size
        if n < NARROW:
            chunks = self.chunks
            listed = pages.tolist()
            if n >= ONE_CHUNK:
                key = listed[0] >> CHUNK_SHIFT
                if (key == listed[-1] >> CHUNK_SHIFT
                        == min(listed) >> CHUNK_SHIFT
                        == max(listed) >> CHUNK_SHIFT):
                    cols = chunks.get(key)
                    if cols is None:
                        return np.zeros(n, dtype=np.int64)
                    return cols[column].take(pages, mode="wrap").astype(
                        np.int64)
            found = []
            for page in listed:
                cols = chunks.get(page >> CHUNK_SHIFT)
                found.append(0 if cols is None
                             else cols[column].item(page & CHUNK_MASK))
            return np.array(found, dtype=np.int64)
        out = np.zeros(n, dtype=np.int64)
        for cols, rows, where in self.groups(pages):
            if cols is not None:
                out[where] = cols[column][rows]
        return out

    def scatter(self, column: int, pages: np.ndarray, values,
                create: bool = False) -> None:
        """Store ``values`` (a scalar, or an array aligned with ``pages``)
        into ``column`` at ``pages``; chunks that do not exist are skipped
        unless ``create``."""
        n = pages.size
        if n < NARROW:
            chunks = self.chunks
            listed = pages.tolist()
            if n >= ONE_CHUNK:
                key = listed[0] >> CHUNK_SHIFT
                if (key == listed[-1] >> CHUNK_SHIFT
                        == min(listed) >> CHUNK_SHIFT
                        == max(listed) >> CHUNK_SHIFT):
                    cols = self.chunk(key) if create else chunks.get(key)
                    if cols is not None:
                        cols[column].put(pages, values, mode="wrap")
                    return
            aligned = np.ndim(values) > 0
            for at, page in enumerate(listed):
                cols = (self.chunk(page >> CHUNK_SHIFT) if create
                        else chunks.get(page >> CHUNK_SHIFT))
                if cols is not None:
                    cols[column][page & CHUNK_MASK] = (values[at] if aligned
                                                       else values)
            return
        aligned = np.ndim(values) > 0
        for cols, rows, where in self.groups(pages, create):
            if cols is not None:
                cols[column][rows] = values[where] if aligned else values

    def live_rows(self, column: int):
        """Yield ``(cols, rows, pages)`` per chunk for the rows whose
        ``column`` entry is nonzero."""
        for key, cols in self.chunks.items():
            rows = cols[column].nonzero()[0]
            if rows.size:
                yield cols, rows, rows + (key << CHUNK_SHIFT)
