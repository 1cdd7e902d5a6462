"""Twin/diff machinery for the multiple-writer protocol.

Samhita "supports a multiple-writer protocol" to reduce the impact of false
sharing: each writer keeps a pristine *twin* of the page, and at
synchronization time ships only the bytes that differ. Concurrent writers of
disjoint byte ranges therefore merge cleanly at the page's home.

Both modes ship the same immutable, columnar :class:`PageDiff`:

* functional mode -- :func:`diff_spans` compares a page's row of bytes with
  its twin row (both rows of the cache's chunk arrays) and keeps the
  changed bytes as one position column and one payload array;
* timing mode -- :class:`ByteRanges` tracks dirty intervals without data, so
  diff *sizes* (what the timing model needs) stay exact.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import MemoryError_

_INF = float("inf")
_ZERO = np.zeros(1, dtype=np.intp)
#: The columns every unchanged page's diff shares (read-only).
_NO_OFFSETS = np.zeros(0, dtype=np.intp)
_NO_OFFSETS.flags.writeable = False
_NO_BYTES = np.zeros(0, dtype=np.uint8)
_NO_BYTES.flags.writeable = False


class ByteRanges:
    """A sorted set of disjoint half-open byte intervals within one page."""

    __slots__ = ("_ranges",)

    def __init__(self, ranges=None):
        self._ranges: list[tuple[int, int]] = []
        if ranges:
            for start, end in ranges:
                self.add(start, end)

    def add(self, start: int, end: int) -> None:
        """Insert [start, end), coalescing with touching/overlapping spans.

        Locates the window of affected intervals by bisection and splices
        once, so repeated adds stay O(log n) plus the splice instead of
        rebuilding the whole list per insertion.
        """
        if start < 0 or end < start:
            raise MemoryError_(f"invalid byte range [{start}, {end})")
        if start == end:
            return
        ranges = self._ranges
        if not ranges:
            ranges.append((start, end))
            return
        last_s, last_e = ranges[-1]
        if start >= last_s:
            # Intervals are sorted and disjoint, so a range starting at or
            # after the last interval's start can only touch the last
            # interval: handle append / extend / contained without bisecting
            # (sequential writes live entirely in this branch).
            if start > last_e:
                ranges.append((start, end))
            elif end > last_e:
                ranges[-1] = (last_s, end)
            return
        # First interval that could touch [start, end): the one before the
        # insertion point if it reaches start, otherwise the insertion point.
        lo = bisect_right(ranges, (start,))
        if lo and ranges[lo - 1][1] >= start:
            lo -= 1
        # One past the last interval whose start is <= end (touching counts).
        hi = bisect_right(ranges, (end, _INF))
        if lo == hi:  # disjoint from every existing interval
            ranges.insert(lo, (start, end))
            return
        if ranges[lo][0] < start:
            start = ranges[lo][0]
        if ranges[hi - 1][1] > end:
            end = ranges[hi - 1][1]
        ranges[lo:hi] = [(start, end)]

    def merge(self, other: "ByteRanges") -> None:
        for s, e in other:
            self.add(s, e)

    def gaps_within(self, start: int, end: int):
        """Sub-ranges of [start, end) NOT covered by any interval.

        The write path snapshots exactly these bytes before dirtying them:
        already-dirty bytes were snapshotted by the write that dirtied them.
        """
        ranges = self._ranges
        lo = bisect_right(ranges, (start,))
        if lo and ranges[lo - 1][1] > start:
            lo -= 1
        cursor = start
        for i in range(lo, len(ranges)):
            s, e = ranges[i]
            if s >= end:
                break
            if s > cursor:
                yield cursor, s
            if e > cursor:
                cursor = e
            if cursor >= end:
                return
        if cursor < end:
            yield cursor, end

    @property
    def nbytes(self) -> int:
        return sum(e - s for s, e in self._ranges)

    @property
    def empty(self) -> bool:
        return not self._ranges

    def contains(self, offset: int) -> bool:
        return any(s <= offset < e for s, e in self._ranges)

    def clear(self) -> None:
        self._ranges.clear()

    def __iter__(self):
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __eq__(self, other) -> bool:
        return isinstance(other, ByteRanges) and self._ranges == other._ranges

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ByteRanges({self._ranges!r})"


def _extract(page: int, pre: np.ndarray, current: np.ndarray, dirty) -> "PageDiff":
    """The diff of ``current`` against ``pre`` within the ``dirty`` ranges.

    Consecutive changed bytes coalesce into one span. ``dirty`` holds
    ascending ``(start, end)`` ranges that do not touch, so no run crosses
    from one range into the next. Vectorized: a fixed number of NumPy
    operations per dirty range and none per span. (The cache asks whether
    anything changed before it comes here: ``SoftwareCache.take_diffs``.)
    """
    changed = np.zeros(current.shape[0], dtype=bool)
    for s, e in dirty:
        np.not_equal(pre[s:e], current[s:e], out=changed[s:e])
    index = changed.nonzero()[0]
    n = index.shape[0]
    if not n:
        return PageDiff.unchanged(page)
    diff = PageDiff.__new__(PageDiff)
    diff.page, diff.index, diff.payload, diff.payload_bytes = page, index, current[index], n
    # A span starts at the first changed byte and wherever consecutive
    # changed positions jump by more than one.
    breaks = (index[1:] - index[:-1] != 1).nonzero()[0] + 1
    first = np.concatenate((_ZERO, breaks))
    diff.starts = index[first]
    diff.sizes = np.concatenate((breaks, (n,))) - first
    diff.n_spans, diff.end = first.shape[0], int(index[-1]) + 1
    diff.wire_bytes = n + PageDiff.SPAN_HEADER_BYTES * diff.n_spans
    return diff


def compute_diff_spans(twin: np.ndarray, current: np.ndarray, page: int = 0) -> "PageDiff":
    """The diff of a page against its whole-page twin (equal-length uint8)."""
    if twin.shape != current.shape:
        raise MemoryError_("twin/current shape mismatch")
    return _extract(page, twin, current, ((0, current.shape[0]),))


def diff_spans(pre: np.ndarray, current: np.ndarray, dirty,
               page: int = 0) -> "PageDiff":
    """The diff of a page row against its twin row, scanning only the
    ``dirty`` ranges: span for span what the whole-page
    :func:`compute_diff_spans` finds against a whole-page twin.

    The twin row is a *zero-copy* twin: the cache snapshots into it only
    the bytes a write is about to dirty, immediately before the write
    lands, so twin upkeep costs O(bytes written), not O(page), and the rest
    of the row is whatever it held. The per-range scan is still exact:

    * changed bytes are confined to the dirty ranges -- outside them, data
      only moves via consistency-region stores and incoming fine-grain
      updates, which the cache copies into the twin row either way;
    * within a dirty range the twin row is byte-identical to a whole-page
      copy (snapshotted before the dirtying write, then kept in sync by the
      same mirroring);
    * dirty ranges coalesce when touching (:meth:`ByteRanges.add`), so a
      changed-byte run can never straddle a gap -- the gap byte is equal by
      construction and would split the run in the whole-page scan too.
    """
    return _extract(page, pre, current, dirty)


class SpanTwin:
    """The name under which ``benchmarks/suite/metrics.py`` counts span
    extractions (``SpanTwin.diff_spans``). A twin is not an object: it is
    the page's row of the cache's ``TWIN`` column, present exactly while
    the page is dirty."""

    diff_spans = staticmethod(diff_spans)


class PageDiff:
    """The unit shipped at synchronization time for one page: immutable columns.

    * ``starts`` / ``sizes`` -- one integer per span: its offset in the page
      and its length. They carry the wire accounting (a run-length encoded
      diff: payload plus a small header per span) and exist in both modes.
    * ``payload`` -- every span's bytes back to back in one uint8 array, or
      ``None`` in timing mode, where only sizes matter.
    * ``index`` -- the page offset of each payload byte: an extraction diff
      is the runs of one ascending scan, disjoint by construction, so it
      lands with one indexed store. ``None`` on a diff built from a span
      list: a store log keeps its pieces in program order and they may
      overlap, so those replay span by span and the later store wins.

    ``end`` is one past the last byte any span touches (apply's bounds
    check); ``wire_bytes`` is the payload plus one header per span.
    """

    SPAN_HEADER_BYTES = 8

    __slots__ = ("page", "starts", "sizes", "index", "payload",
                 "n_spans", "payload_bytes", "wire_bytes", "end")

    def __init__(self, page: int, spans=None, sizes=None):
        """Normalise and validate a list of ``(offset, data)`` spans: ``data``
        is a uint8 array (copied), or ``None`` on every span of a timing diff
        whose lengths come from ``sizes``."""
        spans = list(spans or ())
        starts = [offset for offset, _ in spans]
        pieces = [data for _, data in spans if data is not None]
        if sizes is None:
            sizes = [0 if data is None else len(data) for _, data in spans]
        if len(sizes) != len(spans) or len(pieces) not in (0, len(spans)):
            raise MemoryError_(f"page {page}: span/size/data count mismatch")
        if spans and (min(starts) < 0 or min(sizes) < 0):
            raise MemoryError_(f"page {page}: negative diff span offset or size")
        self.page, self.index, self.n_spans = page, None, len(spans)
        self.payload_bytes = sum(sizes)
        self.wire_bytes = self.payload_bytes + self.SPAN_HEADER_BYTES * len(spans)
        self.payload = np.concatenate(
            pieces, dtype=np.uint8, casting="unsafe") if pieces else None
        if pieces and self.payload.shape[0] != self.payload_bytes:
            raise MemoryError_(f"page {page}: span sizes disagree with their data")
        self.end = max((s + n for s, n in zip(starts, sizes)), default=0)
        self.starts = np.array(starts, dtype=np.intp)
        self.sizes = np.array(sizes, dtype=np.intp)

    @classmethod
    def one_span(cls, page: int, start: int, size: int, data) -> "PageDiff":
        """``PageDiff(page, [(start, data)], [size])`` for a span known to
        lie inside the page, without the list normalisation."""
        diff = cls.__new__(cls)
        diff.page, diff.index, diff.n_spans = page, None, 1
        diff.payload_bytes, diff.end = size, start + size
        diff.wire_bytes = size + cls.SPAN_HEADER_BYTES
        diff.payload = None if data is None else np.array(data, dtype=np.uint8)
        diff.starts = np.array((start,), dtype=np.intp)
        diff.sizes = np.array((size,), dtype=np.intp)
        return diff

    @classmethod
    def from_ranges(cls, page: int, ranges) -> "PageDiff":
        """Timing-mode diff: spans with sizes but no data."""
        return cls(page, [(s, None) for s, _ in ranges], [e - s for s, e in ranges])

    @property
    def empty(self) -> bool:
        return not self.n_spans

    @property
    def spans(self) -> list:
        """``(offset, data)`` per span (``data`` is ``None`` in timing mode),
        materialised on each read: for tests and diagnostics, not hot paths."""
        starts = self.starts.tolist()
        if self.payload is None:
            return [(start, None) for start in starts]
        return list(zip(starts, np.split(self.payload, self.sizes.cumsum()[:-1])))

    def apply_to(self, buffer: np.ndarray) -> None:
        """Write the diff's bytes into a page-sized uint8 buffer."""
        if self.payload is not None and self.end > buffer.shape[0]:
            raise MemoryError_(f"diff of page {self.page} ends at byte "
                               f"{self.end} of a {buffer.shape[0]}-byte page")
        self._store(buffer)

    def _store(self, buffer: np.ndarray) -> None:
        payload = self.payload
        if payload is None:  # timing mode, nothing to apply
            return
        if self.index is not None:
            buffer[self.index] = payload
        elif self.n_spans == 1:  # a release's one store: it ends at ``end``
            buffer[self.end - self.payload_bytes:self.end] = payload
        else:
            at = 0
            for start, size in zip(self.starts.tolist(), self.sizes.tolist()):
                buffer[start:start + size] = payload[at:at + size]
                at += size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PageDiff page={self.page} spans={self.n_spans} bytes={self.payload_bytes}>"


class _Unchanged(PageDiff):
    """``PageDiff.unchanged(page)``: the diff of a page whose bytes equal
    their pre-image -- what an extraction finds when nothing changed. It is
    still a diff -- taken, logged, shipped (zero bytes) and merged (a
    version bump) like any other. Only ``page`` is per instance; every other
    field is the class's (the shared read-only empty columns, zero counts),
    so building one is a single call and none of its fields can be set."""

    __slots__ = ()
    starts = sizes = index = _NO_OFFSETS
    payload = _NO_BYTES
    n_spans = payload_bytes = wire_bytes = end = 0

    def __init__(self, page: int):
        self.page = page


PageDiff.unchanged = _Unchanged
