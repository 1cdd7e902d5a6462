"""Tests for the backing store and the fine-grain store log."""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.errors import MemoryError_
from repro.memory import BackingStore, MemoryLayout, PageDiff, StoreLog
from repro.memory.backing import CRC, CRC_CORRUPT, NO_CRC, payload_crc_ok
from repro.memory.diff import compute_diff_spans

L = MemoryLayout()


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
        store.write_page(2, payload)
        assert (store.read_page(2) == 3).all()
        assert store.version_of(2) == 1

    def test_write_page_size_mismatch_rejected(self):
        store = BackingStore(L)
        with pytest.raises(MemoryError_):
            store.write_page(0, np.zeros(10, np.uint8))

    def test_apply_diff_merges(self):
        store = BackingStore(L)
        base = store.read_page(0)
        new = base.copy()
        new[10:20] = 7
        diff = compute_diff_spans(base, new)
        store.apply_diff(diff)
        assert (store.read_page(0)[10:20] == 7).all()
        assert store.version_of(0) == 1

    def test_timing_mode_has_no_data(self):
        store = BackingStore(L, functional=False)
        assert store.read_page(0) is None
        store.apply_diff(PageDiff(0, spans=[(0, None)], sizes=[16]))
        assert store.version_of(0) == 1
        assert store.stats.get("diff_bytes") == 16

    def test_resident_bytes(self):
        store = BackingStore(L)
        store.ensure(0)
        store.ensure(1)
        assert store.resident_bytes == 8192


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
        assert bulk.live_pages() == loop.live_pages() == sorted(
            {*served, *merged, *range(CHUNK_PAGES - 2, CHUNK_PAGES + 3)})
        assert ([bulk.version_of(p) for p in bulk.live_pages()]
                == [loop.version_of(p) for p in loop.live_pages()])
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
        store.integrity = True
        if chunk_exists:
            store.ensure(0)
        before = store.stats.get("frames_created")
        if merge:
            store.apply_diffs([PageDiff.unchanged(1)])
            assert store.version_of(1) == 1
        else:
            data, crcs = store.serve_pages([1])
            assert not data[1].any() and crcs == {1: store.page_crc(1)}
        assert store.stats.get("frames_created") == before + 1
        assert store.resident_pages == 1 + chunk_exists
        assert not store.read_page(1).any()

    def test_a_timing_serve_ships_the_version_or_the_corruption_sentinel(self):
        store = BackingStore(L, functional=False)
        store.integrity = True
        store.write_page(1, None)
        store.write_page(1, None)
        store.corrupt_page(2)
        data, crcs = store.serve_pages([1, 2, 3])
        assert data == {1: None, 2: None, 3: None}
        assert crcs == {1: 2, 2: CRC_CORRUPT, 3: 0}
        assert [store.page_crc(p) for p in (1, 2, 3)] == [2, CRC_CORRUPT, 0]


class TestChecksumAcrossDiffs:
    """A diff that changes no byte keeps the frame's cached checksum; no
    diff, empty or not, ever refreshes a rotted frame's stale one."""

    @staticmethod
    def _store():
        store = BackingStore(L)
        store.integrity = True
        store.write_page(3, np.arange(4096, dtype=np.uint8))
        return store

    @staticmethod
    def _changing(page=3):
        return PageDiff(page, spans=[(8, np.full(4, 9, np.uint8))])

    def test_span_less_diff_keeps_the_cached_crc(self):
        store = self._store()
        crc = store.page_crc(3)
        cols, i = store.ensure(3)
        store.apply_diff(PageDiff.unchanged(3))
        assert cols[CRC][i] == crc  # still cached: the next serve recomputes nothing
        assert store.version_of(3) == 2 and store.stats.get("diffs_applied") == 1
        assert store.serve_pages([3])[1] == {3: crc}
        assert payload_crc_ok(store.read_page(3), crc)

    def test_changing_diff_drops_the_cached_crc(self):
        store = self._store()
        crc = store.page_crc(3)
        cols, i = store.ensure(3)
        store.apply_diff(self._changing())
        assert cols[CRC][i] == NO_CRC
        assert store.page_crc(3) != crc
        assert payload_crc_ok(store.read_page(3), store.page_crc(3))

    @pytest.mark.parametrize("spans", [False, True])
    def test_no_diff_launders_a_rotted_frame(self, spans):
        store = self._store()
        store.corrupt_page(3)
        stale = store.page_crc(3)
        assert store.serve_pages([3])[1] == {3: stale}
        store.apply_diff(self._changing() if spans else PageDiff.unchanged(3))
        assert store.page_crc(3) == stale
        data, crcs = store.serve_pages([3])
        assert crcs == {3: stale} and not payload_crc_ok(data[3], crcs[3])
        # ... until a replica's copy rebuilds it.
        store.restore_page(3, np.arange(4096, dtype=np.uint8))
        assert payload_crc_ok(store.read_page(3), store.page_crc(3))

    @pytest.mark.parametrize("spans", [False, True])
    def test_repair_rebuilds_a_frame_rotted_before_a_diff(self, spans):
        """End to end: the frame rots, a recall-style merge lands on it
        (logged first, as every merge is), and the next fault still detects
        the rot and repairs it from the replica + the unshipped log."""
        system = SamhitaSystem.cluster(n_threads=2,
                                       config=SamhitaConfig.grayfail())
        writer, reader = system.add_thread(), system.add_thread()
        where = {}

        def allocate():
            where["base"] = yield from system.malloc(writer, 4096, shared=True)

        system.process(allocate())
        system.run()
        page = where["base"] // 4096
        server = system.server_of_page(page)
        diff = self._changing(page) if spans else PageDiff.unchanged(page)
        server.backing.corrupt_page(page)
        system.resilience.log(server, [diff])
        server.backing.apply_diffs([diff])
        system.process(system.compute_server_of(reader).ensure_resident(
            reader, where["base"], 4096))
        system.run()
        stats = system.compute_server_of(reader).stats
        assert stats.get("integrity_failures") == stats.get("integrity_repairs") == 1
        want = np.zeros(4096, np.uint8)
        diff.apply_to(want)
        assert np.array_equal(system.cache_of(reader).peek(page), want)
        assert payload_crc_ok(server.backing.read_page(page),
                              server.backing.page_crc(page))


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
