"""Tests for the per-thread software cache."""

import numpy as np
import pytest

from repro.errors import ConsistencyError, MemoryError_, ProtectionError
from repro.memory import EvictionPolicy, MemoryLayout, PageDiff, SoftwareCache
from repro.memory.cache import WIDE
from repro.memory.pagetable import CHUNK_PAGES
from tests.memory.reference_cache import ReferenceCache

L = MemoryLayout(page_bytes=4096, pages_per_line=4)


def make(capacity=64, functional=True, policy=EvictionPolicy.DIRTY_BIASED,
         impl="table"):
    """``impl="sorted"`` builds the dict-of-records reference (full sort per
    victim choice) instead: the oracle answers the same cases."""
    cls = SoftwareCache if impl == "table" else ReferenceCache
    return cls(L, capacity_pages=capacity, functional=functional,
               policy=policy)


def install_zero(cache, *pages, prefetched=False):
    for p in pages:
        data = np.zeros(4096, np.uint8) if cache.functional else None
        cache.install(p, data, prefetched=prefetched)


class TestResidency:
    def test_missing_pages_and_lines(self):
        c = make()
        install_zero(c, 0, 1)
        assert c.missing_in(0, 3).tolist() == [2]
        assert L.lines_of(c.missing_in(0, 4)) == [0]
        install_zero(c, 2, 3)
        assert c.missing_in(0, 4).size == 0

    def test_capacity_must_fit_a_line(self):
        with pytest.raises(MemoryError_):
            SoftwareCache(L, capacity_pages=2)

    def test_install_over_capacity_rejected(self):
        c = make(capacity=4)
        install_zero(c, 0, 1, 2, 3)
        with pytest.raises(MemoryError_):
            install_zero(c, 4)

    def test_access_nonresident_page_rejected(self):
        c = make()
        with pytest.raises(ProtectionError):
            c.read(0, 8)
        with pytest.raises(ProtectionError):
            c.write(0, 8, np.zeros(8, np.uint8))


class TestReadWrite:
    def test_write_then_read_roundtrip(self):
        c = make()
        install_zero(c, 0)
        payload = np.arange(16, dtype=np.uint8)
        c.write(100, 16, payload)
        assert np.array_equal(c.read(100, 16), payload)

    def test_read_across_page_boundary(self):
        c = make()
        install_zero(c, 0, 1)
        payload = np.arange(32, dtype=np.uint8)
        c.write(4096 - 16, 32, payload)
        assert np.array_equal(c.read(4096 - 16, 32), payload)

    @pytest.mark.parametrize("first, n_pages", [
        (0, 1), (0, 3), (CHUNK_PAGES - 2, 4)], ids=[
        "one-page", "several-pages", "across-a-chunk-boundary"])
    def test_a_read_is_a_snapshot_that_later_stores_do_not_change(
            self, first, n_pages):
        c = make()
        install_zero(c, *range(first, first + n_pages))
        addr = first * 4096 + 100
        nbytes = (n_pages - 1) * 4096 + 8
        c.write(addr, nbytes, np.ones(nbytes, np.uint8))
        got = c.read(addr, nbytes)
        c.write(addr, nbytes, np.full(nbytes, 2, np.uint8))
        c.write(addr, nbytes, np.full(nbytes, 3, np.uint8), ordinary=False)
        last = (first + n_pages - 1) * 4096
        c.apply_fine_grain([PageDiff(first, spans=[(100, np.full(8, 4, np.uint8))]),
                            PageDiff(first + n_pages - 1,
                                     spans=[(0, np.full(8, 5, np.uint8))])])
        assert (got == 1).all() and got.size == nbytes
        assert (c.read(addr, 8) == 4).all() and (c.read(last, 8) == 5).all()

    def test_zero_length_ops(self):
        c = make()
        assert c.read(0, 0).size == 0
        c.write(0, 0, None)  # no residency required for empty writes

    def test_timing_mode_read_returns_none(self):
        c = make(functional=False)
        install_zero(c, 0)
        assert c.read(0, 64) is None

    def test_write_data_length_mismatch_rejected(self):
        c = make()
        install_zero(c, 0)
        with pytest.raises(MemoryError_):
            c.write(0, 16, np.zeros(8, np.uint8))


class TestTwinsAndDiffs:
    def test_first_ordinary_write_creates_twin(self):
        c = make()
        install_zero(c, 0)
        c.write(0, 8, np.ones(8, np.uint8))
        assert c.stats.get("twins_created") == 1
        c.write(8, 8, np.ones(8, np.uint8))
        assert c.stats.get("twins_created") == 1  # only once per dirty epoch

    def test_take_diff_contains_exact_changes(self):
        c = make()
        install_zero(c, 0)
        c.write(10, 4, np.full(4, 9, np.uint8))
        diff = c.take_diff(0)
        assert diff.payload_bytes == 4
        buf = np.zeros(4096, np.uint8)
        diff.apply_to(buf)
        assert (buf[10:14] == 9).all()

    def test_take_diff_cleans_page(self):
        c = make()
        install_zero(c, 0)
        c.write(0, 8, np.ones(8, np.uint8))
        assert c.dirty_page_ids() == [0]
        c.take_diff(0)
        assert c.dirty_page_ids() == []
        assert c.take_diff(0) is None

    def test_rewriting_same_bytes_produces_empty_diff(self):
        # Value-based diffing: writing identical bytes moves no data.
        c = make()
        install_zero(c, 0)
        c.write(0, 8, np.zeros(8, np.uint8))
        diff = c.take_diff(0)
        assert diff is not None and diff.payload_bytes == 0

    def test_timing_mode_diff_uses_dirty_ranges(self):
        c = make(functional=False)
        install_zero(c, 0)
        c.write(0, 8, None)
        c.write(100, 50, None)
        diff = c.take_diff(0)
        assert diff.payload_bytes == 58

    def test_cr_write_does_not_dirty_page(self):
        c = make()
        install_zero(c, 0)
        c.write(0, 8, np.ones(8, np.uint8), ordinary=False)
        assert c.dirty_page_ids() == []
        # But the data is visible locally.
        assert (c.read(0, 8) == 1).all()


class TestEviction:
    def test_dirty_biased_prefers_dirty_pages(self):
        c = make(policy=EvictionPolicy.DIRTY_BIASED)
        install_zero(c, 0, 1, 2)
        c.write(4096, 8, np.ones(8, np.uint8))  # page 1 dirty
        assert c.choose_victims(1) == [1]

    def test_clean_first_prefers_clean_pages(self):
        c = make(policy=EvictionPolicy.CLEAN_FIRST)
        install_zero(c, 0, 1, 2)
        c.write(4096, 8, np.ones(8, np.uint8))
        victims = c.choose_victims(2)
        assert 1 not in victims

    def test_lru_order(self):
        c = make(policy=EvictionPolicy.LRU)
        install_zero(c, 0, 1, 2)
        c.read(0, 8)      # touch page 0
        c.read(2 * 4096, 8)  # touch page 2
        assert c.choose_victims(1) == [1]

    def test_protect_excludes_pages(self):
        c = make()
        install_zero(c, 0, 1)
        assert c.choose_victims(1, protect=[0]) == [1]

    def test_cannot_evict_more_than_unprotected(self):
        c = make()
        install_zero(c, 0)
        with pytest.raises(MemoryError_):
            c.choose_victims(1, protect=[0])

    def test_evict_dirty_returns_diff(self):
        c = make()
        install_zero(c, 0)
        c.write(0, 8, np.ones(8, np.uint8))
        diff = c.evict(0)
        assert diff is not None and diff.payload_bytes == 8
        assert not c.resident(0)

    def test_evict_clean_returns_none(self):
        c = make()
        install_zero(c, 0)
        assert c.evict(0) is None

    def test_evict_nonresident_rejected(self):
        with pytest.raises(MemoryError_):
            make().evict(0)


class TestInvalidation:
    def test_invalidate_drops_clean_copies(self):
        c = make()
        install_zero(c, 0, 1, 2)
        assert c.invalidate([0, 2, 99]) == 2
        assert c.resident_page_set() == {1}

    def test_invalidate_dirty_page_is_protocol_error(self):
        c = make()
        install_zero(c, 0)
        c.write(0, 8, np.ones(8, np.uint8))
        with pytest.raises(ConsistencyError):
            c.invalidate([0])


class TestFineGrain:
    def test_apply_fine_grain_updates_resident_copy(self):
        c = make()
        install_zero(c, 0)
        diff = PageDiff(0, spans=[(5, np.full(3, 8, np.uint8))])
        applied = c.apply_fine_grain([diff])
        assert applied == 3
        assert (c.read(5, 3) == 8).all()

    def test_apply_fine_grain_skips_nonresident(self):
        c = make()
        diff = PageDiff(0, spans=[(0, np.ones(4, np.uint8))])
        assert c.apply_fine_grain([diff]) == 0

    def test_fine_grain_does_not_reappear_in_own_diff(self):
        c = make()
        install_zero(c, 0)
        c.write(100, 4, np.full(4, 1, np.uint8))  # ordinary: twin exists
        incoming = PageDiff(0, spans=[(0, np.full(4, 9, np.uint8))])
        c.apply_fine_grain([incoming])
        diff = c.take_diff(0)
        applied_offsets = {off for off, _ in diff.spans}
        assert 0 not in applied_offsets  # incoming bytes not re-shipped


class TestEvictionBothImpls:
    """The ablation policies under the column selection and the reference
    model's full sort."""

    @pytest.mark.parametrize("impl", ["table", "sorted"])
    def test_clean_first_full_order(self, impl):
        c = make(policy=EvictionPolicy.CLEAN_FIRST, impl=impl)
        install_zero(c, 0, 1, 2, 3)
        c.write(1 * 4096, 8, np.ones(8, np.uint8))   # page 1 dirty
        c.write(3 * 4096, 8, np.ones(8, np.uint8))   # page 3 dirty
        # Clean pages in install (LRU) order first, then the dirty ones.
        assert c.choose_victims(4) == [0, 2, 1, 3]

    @pytest.mark.parametrize("impl", ["table", "sorted"])
    def test_clean_first_dirty_page_cleaned_by_diff_moves_class(self, impl):
        c = make(policy=EvictionPolicy.CLEAN_FIRST, impl=impl)
        install_zero(c, 0, 1)
        c.write(0, 8, np.ones(8, np.uint8))
        assert c.choose_victims(1) == [1]     # page 0 dirty: spared
        c.take_diff(0)                        # clean again (key decreases)
        # Both clean now; the write bumped page 0's recency, so LRU-within-
        # class puts page 1 (older touch) first.
        assert c.choose_victims(2) == [1, 0]

    @pytest.mark.parametrize("impl", ["table", "sorted"])
    def test_lru_write_refreshes_recency(self, impl):
        c = make(policy=EvictionPolicy.LRU, impl=impl)
        install_zero(c, 0, 1, 2)
        c.write(0, 8, np.ones(8, np.uint8))   # page 0 now most recent
        c.read(2 * 4096, 8)                   # page 2 next
        assert c.choose_victims(2) == [1, 0]

    @pytest.mark.parametrize("impl", ["table", "sorted"])
    def test_dirty_biased_cleaned_page_loses_priority(self, impl):
        c = make(policy=EvictionPolicy.DIRTY_BIASED, impl=impl)
        install_zero(c, 0, 1, 2)
        c.write(2 * 4096, 8, np.ones(8, np.uint8))
        assert c.choose_victims(1) == [2]     # dirty first
        c.take_diff(2)
        assert c.choose_victims(1) == [0]     # all clean: plain LRU

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_selection_over_many_chunks_with_protection(self, policy):
        # Victims come from every chunk of the table; protected pages and
        # the policy class order are honoured across chunk boundaries.
        c, ref = make(policy=policy), make(policy=policy, impl="sorted")
        pages = [7, CHUNK_PAGES - 1, CHUNK_PAGES, 3 * CHUNK_PAGES + 5, 1 << 28]
        for cache in (c, ref):
            install_zero(cache, *pages)
            cache.write(CHUNK_PAGES * 4096, 8, np.ones(8, np.uint8))
            cache.read(7 * 4096, 8)
        for count in range(1, 5):
            assert (c.choose_victims(count, protect=[pages[1]])
                    == ref.choose_victims(count, protect=[pages[1]]))


class TestLineResidency:
    """A line's residency is answered from the residency columns: the
    lines of ``missing_in``'s page vector."""

    def test_counts_track_evict(self):
        c = make()
        install_zero(c, 0, 1, 2, 3)           # line 0 complete
        assert c.missing_in(0, 4).size == 0
        c.evict(2)
        assert L.lines_of(c.missing_in(0, 4)) == [0]
        assert c.missing_in(0, 4).tolist() == [2]

    def test_counts_track_invalidate(self):
        c = make()
        install_zero(c, 4, 5, 6, 7)           # line 1 complete
        assert c.missing_in(4, 8).size == 0
        c.invalidate([5, 6])
        assert L.lines_of(c.missing_in(4, 8)) == [1]
        install_zero(c, 5, 6)
        assert c.missing_in(4, 8).size == 0

    def test_counts_survive_clear(self):
        c = make()
        install_zero(c, 0, 1, 2, 3)
        c.clear()
        assert L.lines_of(c.missing_in(0, 4)) == [0]
        install_zero(c, 0, 1, 2, 3)
        assert c.missing_in(0, 4).size == 0

    def test_refresh_install_does_not_double_count(self):
        c = make()
        install_zero(c, 0, 1, 2, 3)
        install_zero(c, 1)                    # refresh of a resident page
        c.evict(1)
        assert L.lines_of(c.missing_in(0, 4)) == [0]
        assert c.resident_pages == 3


class TestPrefetchAccounting:
    def test_prefetch_hit_counted_once(self):
        c = make()
        install_zero(c, 0, prefetched=True)
        c.read(0, 8)
        c.read(0, 8)
        assert c.stats.get("prefetch_hits") == 1
        assert c.stats.get("prefetch_installs") == 1

    def test_demand_install_not_counted(self):
        c = make()
        install_zero(c, 0, prefetched=False)
        c.read(0, 8)
        assert c.stats.get("prefetch_installs") == 0
        assert c.stats.get("prefetch_hits") == 0

    def test_untouched_prefetch_counts_no_hit(self):
        c = make()
        install_zero(c, 0, 1, prefetched=True)
        c.read(0, 8)                          # only page 0 ever touched
        assert c.stats.get("prefetch_installs") == 2
        assert c.stats.get("prefetch_hits") == 1

    def test_write_touch_also_scores_the_hit(self):
        c = make()
        install_zero(c, 0, prefetched=True)
        c.write(0, 8, np.ones(8, np.uint8))
        c.write(8, 8, np.ones(8, np.uint8))
        assert c.stats.get("prefetch_hits") == 1


class TestPageStateTable:
    """Directed cases for the columnar representation: the spill rule, the
    narrow/wide dispatch, chunk boundaries, the memory bound."""

    def test_second_disjoint_range_spills_and_sizes_stay_exact(self):
        c = make(functional=False)
        install_zero(c, 0, 1)
        c.write(0, 8, None)
        c.write(100, 50, None)            # disjoint: page 0 now holds two ranges
        c.write(4096 + 16, 16, None)      # page 1: one range
        assert list(c.entries[0].dirty) == [(0, 8), (100, 150)]
        pages, payload, wire = c.take_diff_sizes([1, 0, 5])
        assert (pages.tolist(), payload) == ([1, 0], 58 + 16)
        assert wire == payload + 3 * PageDiff.SPAN_HEADER_BYTES
        assert c.dirty_page_ids() == []

    def test_touching_and_overlapping_ranges_stay_one_extent(self):
        c = make(functional=False)
        install_zero(c, 0)
        c.write(100, 50, None)
        c.write(150, 10, None)            # touches on the right
        c.write(90, 10, None)             # touches on the left
        c.write(95, 100, None)            # overlaps both ends
        assert list(c.entries[0].dirty) == [(90, 195)]
        assert c.take_diff(0).wire_bytes == 105 + PageDiff.SPAN_HEADER_BYTES

    def test_full_page_store_absorbs_spilled_ranges(self):
        c = make(functional=False)
        install_zero(c, *range(4))
        c.write(4096 + 0, 8, None)
        c.write(4096 + 100, 8, None)      # page 1 spills
        c.write(100, 3 * 4096, None)      # pages 0..3, page 1 and 2 whole
        assert list(c.entries[1].dirty) == [(0, 4096)]
        assert c.take_diff_sizes([0, 1, 2, 3])[1] == 3 * 4096

    def test_extent_growing_both_ways_keeps_rewritten_bytes_out_of_the_diff(self):
        c = make()
        install_zero(c, 0)
        c.write(20, 10, np.full(10, 7, np.uint8))
        c.write(10, 15, np.concatenate([np.zeros(10, np.uint8),
                                        np.full(5, 7, np.uint8)]))  # rewrite
        c.write(25, 15, np.concatenate([np.full(5, 7, np.uint8),
                                        np.full(10, 9, np.uint8)]))
        diff = c.take_diff(0)
        assert [(off, bytes(d)) for off, d in diff.spans] == [
            (20, bytes([7] * 10 + [9] * 10))]

    @pytest.mark.parametrize("use_twins", [True, False])
    def test_stores_that_start_stay_inside_grow_and_split_an_extent(self, use_twins):
        """The four things a functional store can do to a page's dirty
        state, each against the reference cache: twin bytes (through the
        diff they produce), extent / spill and counters."""
        c = SoftwareCache(L, 8, use_twins=use_twins)
        ref = ReferenceCache(L, 8, use_twins=use_twins)
        for cache in (c, ref):
            cache.install(0, np.arange(4096, dtype=np.uint32).astype(np.uint8))

        def store(off, values, want_dirty):
            data = np.array(values, np.uint8)
            for cache in (c, ref):
                cache.write(off, len(data), data)
            assert list(c.entries[0].dirty) == list(ref.entries[0].dirty) == want_dirty
            assert bytes(c.entries[0].data) == bytes(ref.entries[0].data)

        store(100, [1] * 20, [(100, 120)])                 # starts the page
        store(105, [105, 106, 2, 2], [(100, 120)])          # inside: restores 2 bytes
        store(90, [3] * 15, [(90, 120)])                    # grows it to the left
        store(118, [4] * 10, [(90, 128)])                   # ... and to the right
        store(300, [5] * 8, [(90, 128), (300, 308)])        # splits: spills
        store(304, [6] * 8, [(90, 128), (300, 312)])        # grows a spilled range
        store(302, [5, 5], [(90, 128), (300, 312)])         # inside a spilled range
        assert c.stats.get("twins_created") == ref.stats["twins_created"] == use_twins
        got, want = c.take_diff(0), ref.take_diff(0)
        assert ([(off, bytes(d)) for off, d in got.spans]
                == [(off, bytes(d)) for off, d in want.spans])
        assert (got.payload_bytes, got.wire_bytes) == (want.payload_bytes, want.wire_bytes)
        if use_twins:  # the two restored bytes are not shipped
            assert [off for off, _ in got.spans] == [90, 107, 300]

    @pytest.mark.parametrize("functional", [True, False])
    def test_take_diffs_is_the_take_diff_loop_over_the_dirty_members(self, functional):
        caches = [make(functional=functional), make(functional=functional)]
        for cache in caches:
            install_zero(cache, 0, 1, 2, 3, 5)
            one = np.ones(8, np.uint8) if functional else None
            cache.write(0, 8, one)                       # changed
            cache.write(4096 + 8, 8, np.zeros(8, np.uint8) if functional else None)  # unchanged bytes
            cache.write(2 * 4096, 8, one)
            cache.write(2 * 4096 + 100, 8, one)          # page 2 spills
            cache.write(5 * 4096, 8, one, ordinary=False)  # a CR store dirties nothing
        batch, loop = caches
        order = [5, 2, 9, 1, 3, 0]                       # 9 is not resident, 3 and 5 are clean
        got = batch.take_diffs(order)
        want = [loop.take_diff(p) for p in order if loop.is_dirty(p)]
        assert [d.page for d in got] == [d.page for d in want] == [2, 1, 0]
        for a, b in zip(got, want):
            assert (a.n_spans, a.payload_bytes, a.wire_bytes, a.sizes.tolist()) == (
                b.n_spans, b.payload_bytes, b.wire_bytes, b.sizes.tolist())
        assert got[1].n_spans == (0 if functional else 1)
        assert batch.stats.snapshot() == loop.stats.snapshot()
        assert batch.dirty_page_ids() == loop.dirty_page_ids() == []
        assert batch.take_diffs(order) == [] and batch.take_diff(0) is None
        with pytest.raises(MemoryError_):
            batch.take_diff(9)

    @pytest.mark.parametrize("functional", [True, False])
    def test_wide_span_across_a_chunk_boundary_matches_the_reference(self, functional):
        first = CHUNK_PAGES - WIDE
        pages = list(range(first, first + 3 * WIDE))
        c = make(functional=functional)
        ref = make(functional=functional, impl="sorted")
        data = {p: np.full(4096, p % 251, np.uint8) for p in pages} if functional else {}
        c.install_many(pages, data, prefetched=True)
        ref.install_many(pages, {p: d.copy() for p, d in data.items()}, prefetched=True)
        nbytes = (3 * WIDE - 1) * 4096
        payload = np.arange(nbytes, dtype=np.uint32).astype(np.uint8) if functional else None
        for cache in (c, ref):
            cache.write(first * 4096 + 100, nbytes, payload)
        got, want = c.read(first * 4096, 4096 * 3 * WIDE), ref.read(first * 4096, 4096 * 3 * WIDE)
        assert (None if got is None else bytes(got)) == want
        for page in pages:
            assert c.entries[page].last_access == ref.entries[page].last_access
            assert list(c.entries[page].dirty) == list(ref.entries[page].dirty)
        assert c.stats.get("prefetch_hits") == ref.stats["prefetch_hits"] == 3 * WIDE
        for page in pages:
            assert c.take_diff(page).sizes.tolist() == ref.take_diff(page).sizes.tolist()
        stale = range(first + WIDE // 2, first + 4 * WIDE)
        assert c.invalidate(stale) == len(ref.invalidate(stale)) == len(pages) - WIDE // 2
        assert c.resident_page_set() == ref.entries.keys() == set(pages[:WIDE // 2])
        assert c.missing_in(first, first + 3 * WIDE).tolist() == pages[WIDE // 2:]

    def test_page_vectors_in_and_out(self):
        # What the fault path hands the cache and gets back: ascending
        # int64 vectors, on both sides of every narrow/wide dispatch and
        # across a chunk boundary.
        c = make(capacity=512, functional=False)
        first = CHUNK_PAGES - 40
        held = np.arange(first, first + 100, 3)
        c.install_many(held, {})
        assert c.resident_pages == held.size
        assert c.entries[int(held[-1])].last_access == held.size
        span = np.arange(first, first + 100)
        missing = c.missing_in(first, first + 100)
        assert missing.dtype == np.int64
        assert missing.tolist() == [p for p in span.tolist()
                                    if (p - first) % 3]
        mixed = np.concatenate((span[50:], span[:50]))  # not ascending
        assert c.missing_among(mixed).tolist() == [
            p for p in mixed.tolist() if (p - first) % 3]
        assert c.missing_among(missing[:5]).tolist() == missing[:5].tolist()
        assert c.missing_in(first, first + 1).size == 0

    def test_epoch_notices_are_an_ascending_vector(self):
        c = make(capacity=64, functional=False)
        install_zero(c, 9, 3, 4, 40)
        for page in (40, 3, 9):
            c.write(page * 4096, 8, None)
        c.write(3 * 4096 + 4000, 200, None)     # spills into page 4
        notices = c.take_epoch_notices()
        assert notices.dtype == np.int64 and notices.tolist() == [3, 4, 9, 40]
        assert c.take_epoch_notices().size == 0  # cleared; pages stay dirty
        assert c.is_dirty(9)

    def test_invalidate_skips_dirty_pages_only_when_told_to(self):
        c = make(capacity=64, functional=False)
        install_zero(c, 1, 2, 3)
        c.write(2 * 4096, 8, None)
        token = c.begin_fetch(np.array([2, 7], dtype=np.int64))
        with pytest.raises(ConsistencyError):
            c.invalidate({1, 2, 7})
        assert c.invalidate({1, 2, 7}, skip_dirty=True) == 1
        assert c.resident_page_set() == {2, 3} and c.is_dirty(2)
        # The in-flight fetch of 7 is voided; the dirty page's is not.
        assert c.inval_epoch_of(7) == 1 and c.inval_epoch_of(2) == 0
        c.end_fetch(token)

    def test_failed_access_changes_nothing(self):
        c = make()
        install_zero(c, 0, 2, prefetched=True)
        with pytest.raises(ProtectionError):
            c.read(0, 3 * 4096)           # page 1 is missing
        assert c.stats.get("page_touches") == 0
        assert c.entries[0].prefetched and c.entries[0].last_access == 1

    def test_memory_is_bounded_by_pages_touched_not_capacity_or_address(self):
        c = make(capacity=1 << 18)
        assert not c._table.chunks           # nothing until the first install
        install_zero(c, 3, (1 << 28) + 3, 5 * (1 << 28))
        assert len(c._table.chunks) == 3     # one small chunk per region
        assert c.missing_in((1 << 28) + 2, (1 << 28) + 5).tolist() == [
            (1 << 28) + 2, (1 << 28) + 4]

    def test_entries_view_is_read_only(self):
        c = make()
        install_zero(c, 0)
        with pytest.raises(AttributeError):
            c.entries[0].twin = None
        with pytest.raises(TypeError):
            c.entries[1] = None
