"""Twin/diff machinery for the multiple-writer protocol.

Samhita "supports a multiple-writer protocol" to reduce the impact of false
sharing: each writer keeps a pristine *twin* of the page, and at
synchronization time ships only the bytes that differ. Concurrent writers of
disjoint byte ranges therefore merge cleanly at the page's home.

Two representations coexist:

* functional mode -- :func:`compute_diff_spans` extracts ``(offset, bytes)``
  spans by comparing real NumPy buffers;
* timing mode -- :class:`ByteRanges` tracks dirty intervals without data, so
  diff *sizes* (what the timing model needs) stay exact.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import MemoryError_

_INF = float("inf")


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


def compute_diff_spans(twin: np.ndarray, current: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Extract ``(offset, changed_bytes)`` spans between twin and current.

    Both arrays must be equal-length uint8 buffers. Consecutive changed bytes
    coalesce into one span (vectorized -- no Python loop over bytes).
    """
    if twin.shape != current.shape:
        raise MemoryError_("twin/current shape mismatch")
    # XOR of uint8 buffers is nonzero exactly at changed bytes; flatnonzero
    # over the mask avoids materializing an intermediate boolean array twice.
    changed = np.flatnonzero(np.bitwise_xor(twin, current))
    if changed.size == 0:
        return []
    # Span boundaries are where consecutive changed indices jump by > 1.
    breaks = np.flatnonzero(np.diff(changed) > 1) + 1
    starts = changed[np.concatenate(([0], breaks))] if breaks.size else changed[:1]
    ends = np.concatenate((changed[breaks - 1], changed[-1:])) + 1 if breaks.size \
        else changed[-1:] + 1
    return [(int(s), current[int(s):int(e)].copy())
            for s, e in zip(starts, ends)]


class SpanTwin:
    """Zero-copy multiple-writer twin: pre-images of dirty ranges only.

    The classic twin copies the whole page at first write. This variant
    allocates an (uninitialized) scratch buffer and snapshots *only the
    bytes a write is about to dirty*, immediately before the write lands --
    so twin maintenance costs O(bytes written), not O(page), and the common
    small-stencil write never touches 4 KiB.

    Equivalence with the whole-page twin (the reference the property tests
    pin against):

    * changed bytes are confined to the entry's dirty ranges -- outside
      them, data only moves via consistency-region stores and incoming
      fine-grain updates, which the cache mirrors into the twin either way;
    * within a dirty range the pre-image is byte-identical to the page copy
      (snapshotted before the dirtying write, then kept in sync by the same
      CR mirroring);
    * dirty ranges coalesce when touching (:meth:`ByteRanges.add`), so a
      changed-byte run can never straddle a gap -- the gap byte is equal by
      construction and would split the run in the whole-page scan too.

    Hence per-dirty-range span extraction yields exactly the spans the
    whole-page ``compute_diff_spans`` would, in the same order.
    """

    __slots__ = ("pre",)

    def __init__(self, page_bytes: int):
        self.pre = np.empty(page_bytes, dtype=np.uint8)

    def snapshot(self, data: np.ndarray, gaps) -> None:
        """Capture pre-images of ``gaps``: the not-yet-dirty sub-ranges of
        the window a store is about to dirty.

        Must run before the store's range joins the dirty set and before
        the write itself scatters into ``data``.
        """
        pre = self.pre
        for s, e in gaps:
            pre[s:e] = data[s:e]

    def mirror(self, chunk: np.ndarray, covered, start: int) -> None:
        """Keep the pre-image in sync with a consistency-region store of
        ``chunk`` at offset ``start``: those bytes must not surface in this
        writer's ordinary diff. ``covered`` is the dirty overlap of the
        stored window -- outside the dirty ranges the pre-image is never
        consulted."""
        pre = self.pre
        for s, e in covered:
            pre[s:e] = chunk[s - start:e - start]

    def diff_spans(self, current: np.ndarray,
                   dirty) -> list[tuple[int, np.ndarray]]:
        """``(offset, changed_bytes)`` spans vs the pre-image, scanning only
        the dirty ranges (bit-identical to the whole-page scan)."""
        pre = self.pre
        spans: list[tuple[int, np.ndarray]] = []
        for s, e in dirty:
            changed = np.flatnonzero(np.bitwise_xor(pre[s:e], current[s:e]))
            if changed.size == 0:
                continue
            breaks = np.flatnonzero(np.diff(changed) > 1) + 1
            if breaks.size:
                starts = changed[np.concatenate(([0], breaks))]
                ends = np.concatenate((changed[breaks - 1], changed[-1:])) + 1
            else:
                starts = changed[:1]
                ends = changed[-1:] + 1
            spans.extend(
                (s + int(a), current[s + int(a):s + int(b)].copy())
                for a, b in zip(starts, ends))
        return spans


class PageDiff:
    """The unit shipped at synchronization time for one page.

    ``spans`` is a list of ``(offset, data)`` where ``data`` is a uint8 array
    in functional mode or ``None`` (length carried in ``_sizes``) in timing
    mode. Wire size adds a small per-span header, matching a run-length
    encoded diff format.
    """

    SPAN_HEADER_BYTES = 8

    __slots__ = ("page", "spans", "_sizes", "_payload")

    def __init__(self, page: int, spans=None, sizes=None):
        self.page = page
        self.spans: list[tuple[int, np.ndarray | None]] = list(spans or [])
        if sizes is not None:
            self._sizes = list(sizes)
        else:
            self._sizes = [len(d) if d is not None else 0 for _, d in self.spans]
        if len(self._sizes) != len(self.spans):
            raise MemoryError_("span/size length mismatch")
        self._payload = None

    @classmethod
    def from_ranges(cls, page: int, ranges: ByteRanges) -> "PageDiff":
        """Timing-mode diff: spans with sizes but no data."""
        spans = [(s, None) for s, _ in ranges]
        sizes = [e - s for s, e in ranges]
        return cls(page, spans=spans, sizes=sizes)

    @property
    def payload_bytes(self) -> int:
        # Cached: a diff's size is read several times on its way to the wire
        # (scan cost, transfer size, apply cost, stats). Spans are only
        # appended during construction (storelog), before the size is read.
        payload = self._payload
        if payload is None:
            payload = self._payload = sum(self._sizes)
        return payload

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + self.SPAN_HEADER_BYTES * len(self.spans)

    @property
    def empty(self) -> bool:
        return not self.spans

    def apply_to(self, buffer: np.ndarray) -> None:
        """Write the diff's bytes into a page-sized uint8 buffer."""
        for (offset, data), size in zip(self.spans, self._sizes):
            if data is None:
                continue  # timing mode: nothing to apply
            if offset + size > buffer.shape[0]:
                raise MemoryError_(f"diff span [{offset}, {offset+size}) exceeds page")
            buffer[offset:offset + size] = data

    def sizes(self) -> list[int]:
        return list(self._sizes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PageDiff page={self.page} spans={len(self.spans)} bytes={self.payload_bytes}>"
