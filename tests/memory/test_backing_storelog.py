"""Tests for the backing store and the fine-grain store log."""

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.memory import BackingStore, MemoryLayout, PageDiff, StoreLog
from repro.memory.backing import LIVE, VERSION
from repro.memory.diff import compute_diff_spans
from repro.memory.pagetable import CHUNK_MASK, CHUNK_SHIFT

L = MemoryLayout()


def live_pages(store: BackingStore) -> list[int]:
    """Every page that has a frame, ascending (the ``LIVE`` rows)."""
    return sorted(p for _, _, pages in store._table.live_rows(LIVE)
                  for p in pages.tolist())


def version_of(store: BackingStore, page: int) -> int:
    """A page's mutation count (its ``VERSION`` row; 0 without a frame)."""
    cols = store._table.chunks.get(page >> CHUNK_SHIFT)
    return int(cols[VERSION][page & CHUNK_MASK]) if cols is not None else 0


class TestBackingStore:
    def test_first_touch_creates_zero_page(self):
        store = BackingStore(L)
        data = store.read_page(5)
        assert data.shape == (4096,)
        assert not data.any()
        assert store.resident_pages == 1

    def test_read_returns_copy(self):
        store = BackingStore(L)
        a = store.read_page(0)
        a[:] = 9
        assert not store.read_page(0).any()

    def test_write_page_replaces_contents(self):
        store = BackingStore(L)
        payload = np.full(4096, 3, dtype=np.uint8)
        store.write_range(2 * 4096, 4096, payload)
        assert (store.read_page(2) == 3).all()
        assert version_of(store, 2) == 1

    def test_write_page_size_mismatch_rejected(self):
        store = BackingStore(L)
        with pytest.raises(MemoryError_, match="length mismatch"):
            store.write_range(0, 4096, np.zeros(10, np.uint8))

    def test_apply_diff_merges(self):
        store = BackingStore(L)
        base = store.read_page(0)
        new = base.copy()
        new[10:20] = 7
        diff = compute_diff_spans(base, new)
        store.apply_diff(diff)
        assert (store.read_page(0)[10:20] == 7).all()
        assert version_of(store, 0) == 1

    def test_timing_mode_has_no_data(self):
        store = BackingStore(L, functional=False)
        assert store.read_page(0) is None
        store.apply_diff(PageDiff(0, spans=[(0, None)], sizes=[16]))
        assert version_of(store, 0) == 1
        assert store.stats.get("diff_bytes") == 16

    def test_resident_bytes(self):
        store = BackingStore(L)
        store.ensure(0)
        store.ensure(1)
        assert live_pages(store) == [0, 1]
        assert sum(store.read_page(p).nbytes for p in live_pages(store)) == 8192


    def test_timing_bulk_touches_equal_the_per_page_calls(self):
        # The batch forms are one array pass over the frame table; their
        # frames, versions and counters must equal a loop of the per-page
        # methods -- across chunk boundaries and sparse page numbers.
        from repro.memory.pagetable import CHUNK_PAGES
        served = [3, CHUNK_PAGES - 1, CHUNK_PAGES, 5 * CHUNK_PAGES + 7, 1 << 28]
        merged = [CHUNK_PAGES, 9, 1 << 28]
        bulk = BackingStore(L, functional=False)
        loop = BackingStore(L, functional=False)
        bulk.serve_pages_timing(served)
        bulk.apply_diff_sizes(merged, payload_bytes=48)
        bulk.write_range((CHUNK_PAGES - 2) * 4096 + 100, 4 * 4096, None)
        for page in served:
            loop.read_page(page)
        for page in merged:
            loop.apply_diff(PageDiff(page, spans=[(0, None)], sizes=[16]))
        for page in range(CHUNK_PAGES - 2, CHUNK_PAGES + 3):
            loop.apply_diff(PageDiff(page, spans=[(0, None)], sizes=[0]))
            loop.stats.counters["diffs_applied"] -= 1
        assert live_pages(bulk) == live_pages(loop) == sorted(
            {*served, *merged, *range(CHUNK_PAGES - 2, CHUNK_PAGES + 3)})
        assert ([version_of(bulk, p) for p in live_pages(bulk)]
                == [version_of(loop, p) for p in live_pages(loop)])
        assert bulk.stats.snapshot() == loop.stats.snapshot()
        assert bulk.resident_pages == loop.resident_pages == 9

    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize("chunk_exists", [False, True])
    def test_a_serve_or_merge_creates_a_missing_frame_once(self, merge,
                                                           chunk_exists):
        # The batch forms read a frame's row in place and create the frame
        # only where it is missing: for a page of a chunk never touched,
        # and for a page of a touched chunk whose row is not live yet.
        store = BackingStore(L)
        if chunk_exists:
            store.ensure(0)
        before = store.stats.get("frames_created")
        if merge:
            store.apply_diffs([PageDiff.unchanged(1)])
            assert version_of(store, 1) == 1
        else:
            data = store.serve_pages([1])
            assert list(data) == [1] and not data[1].any()
        assert store.stats.get("frames_created") == before + 1
        assert store.resident_pages == 1 + chunk_exists
        assert not store.read_page(1).any()


class TestStoreLog:
    def test_empty_log(self):
        log = StoreLog(L)
        assert log.empty and log.payload_bytes == 0 and len(log) == 0

    def test_record_accumulates(self):
        log = StoreLog(L)
        log.record(0, 8, np.zeros(8, np.uint8))
        log.record(100, 4, np.ones(4, np.uint8))
        assert len(log) == 2
        assert log.payload_bytes == 12
        assert log.wire_bytes == 12 + 2 * StoreLog.ENTRY_HEADER_BYTES

    def test_zero_byte_store_ignored(self):
        log = StoreLog(L)
        log.record(0, 0, None)
        assert log.empty

    def test_data_length_mismatch_rejected(self):
        log = StoreLog(L)
        with pytest.raises(MemoryError_):
            log.record(0, 8, np.zeros(4, np.uint8))

    def test_to_page_diffs_single_page(self):
        log = StoreLog(L)
        log.record(10, 8, np.full(8, 5, np.uint8))
        diffs = log.to_page_diffs()
        assert len(diffs) == 1
        assert diffs[0].page == 0
        buf = np.zeros(4096, np.uint8)
        diffs[0].apply_to(buf)
        assert (buf[10:18] == 5).all()

    def test_to_page_diffs_splits_across_pages(self):
        log = StoreLog(L)
        addr = 4096 - 4
        log.record(addr, 8, np.arange(8, dtype=np.uint8))
        diffs = log.to_page_diffs()
        assert [d.page for d in diffs] == [0, 1]
        p0 = np.zeros(4096, np.uint8)
        p1 = np.zeros(4096, np.uint8)
        diffs[0].apply_to(p0)
        diffs[1].apply_to(p1)
        assert list(p0[-4:]) == [0, 1, 2, 3]
        assert list(p1[:4]) == [4, 5, 6, 7]

    def test_later_stores_win(self):
        log = StoreLog(L)
        log.record(0, 4, np.full(4, 1, np.uint8))
        log.record(0, 4, np.full(4, 2, np.uint8))
        buf = np.zeros(4096, np.uint8)
        for d in log.to_page_diffs():
            d.apply_to(buf)
        assert (buf[:4] == 2).all()

    def test_straddling_overlapping_stores_keep_order_and_wire_size(self):
        # Three stores, two of them across the page 0/1 boundary and all
        # overlapping: every piece stays a span (wire accounting) and the
        # later store wins where they overlap.
        log = StoreLog(L)
        log.record(4090, 12, np.full(12, 1, np.uint8))
        log.record(4094, 8, np.full(8, 2, np.uint8))
        log.record(4088, 4, np.full(4, 3, np.uint8))
        image = np.zeros(2 * 4096, np.uint8)
        for addr, n, data in log.entries:
            image[addr:addr + n] = data
        d0, d1 = log.to_page_diffs()
        assert [(d.page, d.n_spans, d.payload_bytes, d.wire_bytes) for d in (d0, d1)] == [
            (0, 3, 6 + 2 + 4, 12 + 3 * 8), (1, 2, 6 + 6, 12 + 2 * 8)]
        assert d0.starts.tolist() == [4090, 4094, 4088] and d0.sizes.tolist() == [6, 2, 4]
        assert d1.starts.tolist() == [0, 0] and d1.sizes.tolist() == [6, 6]
        rebuilt = np.zeros(2 * 4096, np.uint8)
        d0.apply_to(rebuilt[:4096])
        d1.apply_to(rebuilt[4096:])
        assert np.array_equal(rebuilt, image)

    def test_timing_log_builds_the_same_spans_without_data(self):
        log = StoreLog(L)
        log.record(4090, 12, None)
        log.record(4094, 8, None)
        d0, d1 = log.to_page_diffs()
        assert d0.payload is None and d1.payload is None
        assert [(d.n_spans, d.payload_bytes, d.wire_bytes) for d in (d0, d1)] == [
            (2, 8, 24), (2, 12, 28)]

    def test_timing_mode_sizes_without_data(self):
        log = StoreLog(L)
        log.record(0, 8, None)
        diffs = log.to_page_diffs()
        assert diffs[0].payload_bytes == 8

    @pytest.mark.parametrize("functional", [True, False])
    def test_one_store_in_one_page_builds_the_same_diff_directly(self, functional):
        """The common release (one entry, one page) skips the span-list
        constructor; every field equals what it builds."""
        log = StoreLog(L)
        data = np.arange(8, dtype=np.uint8) if functional else None
        log.record(3 * 4096 + 40, 8, data)
        (got,) = log.to_page_diffs()
        want = PageDiff(3, [(40, data)], [8])
        assert got.index is None and want.index is None
        assert ((got.page, got.n_spans, got.payload_bytes, got.wire_bytes, got.end)
                == (want.page, want.n_spans, want.payload_bytes, want.wire_bytes,
                    want.end) == (3, 1, 8, 16, 48))
        for column in ("starts", "sizes"):
            assert getattr(got, column).dtype == getattr(want, column).dtype
            assert getattr(got, column).tolist() == getattr(want, column).tolist()
        if functional:
            assert got.payload.dtype == np.uint8 and got.payload is not data
            assert got.payload.tolist() == want.payload.tolist()
            page = np.zeros(4096, np.uint8)
            got.apply_to(page)
            assert page[40:48].tolist() == list(range(8)) and page.sum() == 28
        else:
            assert got.payload is None and want.payload is None

    def test_a_store_ending_on_the_page_boundary_stays_one_diff(self):
        log = StoreLog(L)
        log.record(4096 - 8, 8, np.ones(8, np.uint8))
        (diff,) = log.to_page_diffs()
        assert (diff.page, diff.end, diff.n_spans) == (0, 4096, 1)
        log.clear()
        log.record(4096 - 4, 8, np.ones(8, np.uint8))
        assert [d.page for d in log.to_page_diffs()] == [0, 1]

    def test_clear(self):
        log = StoreLog(L)
        log.record(0, 8, None)
        log.clear()
        assert log.empty
