"""Tests (incl. property tests) for ByteRanges, diff spans and PageDiff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory import ByteRanges, PageDiff, compute_diff_spans

PAGE = 4096


class TestByteRanges:
    def test_empty(self):
        r = ByteRanges()
        assert r.empty and r.nbytes == 0 and len(r) == 0

    def test_single_range(self):
        r = ByteRanges([(10, 20)])
        assert r.nbytes == 10
        assert list(r) == [(10, 20)]

    def test_adjacent_ranges_coalesce(self):
        r = ByteRanges()
        r.add(0, 10)
        r.add(10, 20)
        assert list(r) == [(0, 20)]

    def test_overlapping_ranges_coalesce(self):
        r = ByteRanges()
        r.add(0, 15)
        r.add(10, 25)
        assert list(r) == [(0, 25)]

    def test_disjoint_ranges_stay_sorted(self):
        r = ByteRanges()
        r.add(100, 110)
        r.add(0, 10)
        assert list(r) == [(0, 10), (100, 110)]

    def test_bridge_merges_three(self):
        r = ByteRanges([(0, 10), (20, 30)])
        r.add(5, 25)
        assert list(r) == [(0, 30)]

    def test_empty_add_ignored(self):
        r = ByteRanges()
        r.add(5, 5)
        assert r.empty

    def test_invalid_range_rejected(self):
        with pytest.raises(MemoryError_):
            ByteRanges().add(10, 5)
        with pytest.raises(MemoryError_):
            ByteRanges().add(-1, 5)

    def test_contains(self):
        r = ByteRanges([(10, 20)])
        assert r.contains(10) and r.contains(19)
        assert not r.contains(20) and not r.contains(9)

    def test_merge_other(self):
        a = ByteRanges([(0, 10)])
        b = ByteRanges([(5, 15), (20, 30)])
        a.merge(b)
        assert list(a) == [(0, 15), (20, 30)]

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 50)), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_set_semantics(self, pairs):
        r = ByteRanges()
        reference = set()
        for start, length in pairs:
            r.add(start, start + length)
            reference.update(range(start, start + length))
        assert r.nbytes == len(reference)
        # Ranges are sorted, disjoint, non-touching.
        spans = list(r)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2
        covered = set()
        for s, e in spans:
            covered.update(range(s, e))
        assert covered == reference


class TestComputeDiffSpans:
    def test_identical_pages_have_empty_diff(self):
        buf = np.arange(PAGE, dtype=np.uint8) % 251
        diff = compute_diff_spans(buf, buf.copy())
        assert diff.empty and diff.spans == [] and diff.payload_bytes == 0

    def test_single_changed_byte(self):
        twin = np.zeros(PAGE, dtype=np.uint8)
        cur = twin.copy()
        cur[100] = 7
        spans = compute_diff_spans(twin, cur).spans
        assert len(spans) == 1
        off, data = spans[0]
        assert off == 100 and list(data) == [7]

    def test_contiguous_run_coalesces(self):
        twin = np.zeros(PAGE, dtype=np.uint8)
        cur = twin.copy()
        cur[10:20] = 9
        spans = compute_diff_spans(twin, cur).spans
        assert len(spans) == 1
        assert spans[0][0] == 10 and len(spans[0][1]) == 10

    def test_disjoint_runs_split(self):
        twin = np.zeros(PAGE, dtype=np.uint8)
        cur = twin.copy()
        cur[0:4] = 1
        cur[100:104] = 2
        diff = compute_diff_spans(twin, cur)
        assert diff.starts.tolist() == [0, 100] and diff.sizes.tolist() == [4, 4]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MemoryError_):
            compute_diff_spans(np.zeros(10, np.uint8), np.zeros(11, np.uint8))

    @given(st.lists(st.tuples(st.integers(0, PAGE - 9), st.integers(1, 8),
                              st.integers(1, 255)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_property_apply_diff_reconstructs_page(self, writes):
        twin = np.zeros(PAGE, dtype=np.uint8)
        cur = twin.copy()
        for off, length, value in writes:
            cur[off:off + length] = value
        rebuilt = twin.copy()
        compute_diff_spans(twin, cur).apply_to(rebuilt)
        assert np.array_equal(rebuilt, cur)


class TestPageDiff:
    def test_payload_and_wire_bytes(self):
        d = PageDiff(3, spans=[(0, np.ones(10, np.uint8)), (50, np.ones(6, np.uint8))])
        assert d.payload_bytes == 16
        assert d.wire_bytes == 16 + 2 * PageDiff.SPAN_HEADER_BYTES

    def test_timing_mode_from_ranges(self):
        r = ByteRanges([(0, 100), (200, 250)])
        d = PageDiff.from_ranges(7, r)
        assert d.page == 7
        assert d.payload_bytes == 150
        assert all(data is None for _, data in d.spans)

    def test_timing_mode_apply_is_noop(self):
        d = PageDiff.from_ranges(0, ByteRanges([(0, 10)]))
        buf = np.zeros(PAGE, dtype=np.uint8)
        d.apply_to(buf)
        assert not buf.any()

    def test_apply_out_of_bounds_rejected(self):
        d = PageDiff(0, spans=[(PAGE - 2, np.ones(8, np.uint8))])
        with pytest.raises(MemoryError_):
            d.apply_to(np.zeros(PAGE, np.uint8))

    def test_multiple_writer_merge_disjoint(self):
        # Two writers modify disjoint ranges of the same page; applying both
        # diffs in any order yields both updates -- the core multiple-writer
        # property.
        base = np.zeros(PAGE, dtype=np.uint8)
        w1, w2 = base.copy(), base.copy()
        w1[0:100] = 1
        w2[200:300] = 2
        d1 = compute_diff_spans(base, w1)
        d2 = compute_diff_spans(base, w2)
        for order in ((d1, d2), (d2, d1)):
            home = base.copy()
            for d in order:
                d.apply_to(home)
            assert (home[0:100] == 1).all() and (home[200:300] == 2).all()

    def test_empty_flag(self):
        assert PageDiff(0).empty
        assert not PageDiff(0, spans=[(0, np.ones(1, np.uint8))]).empty

    def test_columns_of_a_normalised_diff(self):
        d = PageDiff(3, spans=[(4, np.full(2, 7, np.uint8)), (9, np.full(3, 8, np.uint8))])
        assert d.starts.tolist() == [4, 9] and d.sizes.tolist() == [2, 3]
        assert d.index is None  # a span list replays in order
        assert d.payload.tolist() == [7, 7, 8, 8, 8]
        assert (d.n_spans, d.payload_bytes, d.end) == (2, 5, 12)
        assert [(off, bytes(data)) for off, data in d.spans] == [
            (4, bytes([7, 7])), (9, bytes([8, 8, 8]))]

    def test_columns_of_an_extracted_diff(self):
        twin = np.zeros(16, np.uint8)
        cur = twin.copy()
        cur[4:6], cur[9:12] = 7, 8
        d = compute_diff_spans(twin, cur, page=3)
        assert d.page == 3
        assert d.starts.tolist() == [4, 9] and d.sizes.tolist() == [2, 3]
        assert d.index.tolist() == [4, 5, 9, 10, 11]
        assert d.payload.tolist() == [7, 7, 8, 8, 8]
        assert (d.n_spans, d.payload_bytes, d.wire_bytes, d.end) == (2, 5, 21, 12)
        cur[:] = 0  # the payload is a copy
        assert d.payload.tolist() == [7, 7, 8, 8, 8]
        with pytest.raises(MemoryError_):
            d.apply_to(np.zeros(11, np.uint8))

    def test_constructor_copies_its_data(self):
        data = np.ones(4, np.uint8)
        d = PageDiff(0, spans=[(0, data)])
        data[:] = 9
        assert d.payload.tolist() == [1, 1, 1, 1]

    def test_negative_offset_rejected(self):
        # Used to wrap around: offset -8 of a 16-byte page landed at 8..12.
        with pytest.raises(MemoryError_):
            PageDiff(0, spans=[(-8, np.ones(4, np.uint8))])
        with pytest.raises(MemoryError_):
            PageDiff(0, spans=[(-4, np.ones(8, np.uint8))])
        with pytest.raises(MemoryError_):
            PageDiff(0, spans=[(-4, None)], sizes=[8])

    def test_declared_size_must_match_the_data(self):
        # Used to escape as a bare numpy ValueError from apply_to.
        with pytest.raises(MemoryError_):
            PageDiff(0, spans=[(0, np.ones(4, np.uint8))], sizes=[6])
        with pytest.raises(MemoryError_):
            PageDiff(0, spans=[(0, None)], sizes=[-1])
        with pytest.raises(MemoryError_):
            PageDiff(0, spans=[(0, np.ones(4, np.uint8))], sizes=[4, 4])

    def test_data_on_every_span_or_on_none(self):
        with pytest.raises(MemoryError_):
            PageDiff(0, spans=[(0, np.ones(4, np.uint8)), (8, None)], sizes=[4, 4])

    def test_no_mutators(self):
        d = PageDiff(0, spans=[(0, np.ones(4, np.uint8))])
        assert (d.payload_bytes, d.wire_bytes) == (4, 12)
        d.spans.append((8, np.ones(2, np.uint8)))  # a fresh list every read
        assert (d.n_spans, d.payload_bytes, d.wire_bytes) == (1, 4, 12)
        assert not hasattr(d, "__dict__")

    def test_overlapping_spans_replay_in_order(self):
        d = PageDiff(0, spans=[(0, np.full(8, 1, np.uint8)), (4, np.full(8, 2, np.uint8)),
                               (2, np.full(4, 3, np.uint8))])
        assert d.index is None and (d.n_spans, d.payload_bytes) == (3, 20)
        buf = np.zeros(16, np.uint8)
        d.apply_to(buf)
        assert buf.tolist() == [1, 1, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0]
