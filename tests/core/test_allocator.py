"""Tests for the three-strategy allocator."""

import numpy as np
import pytest

from repro.core.allocator import (
    ARENA_CHUNK_BYTES,
    AllocationKind,
    SamhitaAllocator,
)
from repro.core.params import SamhitaConfig
from repro.errors import AllocationError, MemoryError_


def make(n_servers=1, **kw):
    return SamhitaAllocator(SamhitaConfig(n_memory_servers=n_servers, **kw))


class TestClassification:
    def test_small_is_arena(self):
        a = make()
        assert a.classify(1) is AllocationKind.ARENA
        assert a.classify(64 << 10) is AllocationKind.ARENA

    def test_medium_is_shared_zone(self):
        a = make()
        assert a.classify((64 << 10) + 1) is AllocationKind.SHARED_ZONE
        assert a.classify((1 << 20) - 1) is AllocationKind.SHARED_ZONE

    def test_large_is_striped(self):
        assert make().classify(1 << 20) is AllocationKind.STRIPED

    def test_zero_or_negative_rejected(self):
        with pytest.raises(AllocationError):
            make().classify(0)
        with pytest.raises(AllocationError):
            make().classify(-1)


class TestArena:
    def test_alloc_before_refill_returns_none(self):
        a = make()
        assert a.arena_alloc(0, 100) is None

    def test_refill_then_alloc(self):
        a = make()
        a.refill_arena(0, 100)
        addr = a.arena_alloc(0, 100)
        assert addr is not None
        assert a.allocation_at(addr).kind is AllocationKind.ARENA

    def test_arena_allocations_are_8_byte_aligned(self):
        a = make()
        a.refill_arena(0, 1)
        first = a.arena_alloc(0, 3)
        second = a.arena_alloc(0, 3)
        assert second % 8 == 0
        assert second >= first + 3

    def test_arena_exhaustion_returns_none(self):
        a = make()
        a.refill_arena(0, 1)
        chunk = ARENA_CHUNK_BYTES
        assert a.arena_alloc(0, chunk) is not None
        assert a.arena_alloc(0, chunk) is None

    def test_threads_get_disjoint_page_aligned_arenas(self):
        # The paper: local allocation guarantees no inter-thread false
        # sharing; arena chunks are page-aligned and thread-private.
        a = make()
        a.refill_arena(0, 1)
        a.refill_arena(1, 1)
        a0 = a.arena_alloc(0, 64)
        a1 = a.arena_alloc(1, 64)
        layout = a.layout
        assert layout.page_of(a0) != layout.page_of(a1)

    def test_refill_honours_oversized_request(self):
        a = make()
        big = ARENA_CHUNK_BYTES * 2
        # Pretend ARENA_MAX_ALLOC allowed it: refill directly.
        a.refill_arena(0, big)
        assert a.arena_alloc(0, big) is not None


class TestSharedZoneAndStriped:
    def test_shared_alloc_is_page_aligned(self):
        a = make()
        addr = a.shared_alloc(100 << 10)
        assert addr % a.layout.page_bytes == 0
        assert a.allocation_at(addr).kind is AllocationKind.SHARED_ZONE

    def test_consecutive_shared_allocs_do_not_overlap(self):
        a = make()
        x = a.shared_alloc(100 << 10)
        y = a.shared_alloc(100 << 10)
        assert y >= x + (100 << 10)

    def test_shared_zone_single_server_home(self):
        a = make()
        addr = a.shared_alloc(100 << 10)
        pages = a.layout.pages_spanning(addr, 100 << 10)
        homes = {a.home_of_page(p) for p in pages}
        assert homes == {0}

    def test_striped_alloc_round_robins_lines_across_servers(self):
        a = make(n_servers=3)
        addr = a.striped_alloc(4 << 20)
        layout = a.layout
        first_line = layout.line_of_addr(addr)
        homes = [a.home_of_line(first_line + i) for i in range(6)]
        assert homes == [0, 1, 2, 0, 1, 2]

    def test_striped_alloc_line_aligned(self):
        a = make(n_servers=2)
        addr = a.striped_alloc(2 << 20)
        assert addr % a.layout.line_bytes == 0

    def test_line_never_spans_two_servers(self):
        a = make(n_servers=2)
        addr = a.striped_alloc(2 << 20)
        layout = a.layout
        pages = np.asarray(layout.pages_spanning(addr, 2 << 20))
        for line in layout.lines_of(pages):
            homes = {a.home_of_page(p) for p in layout.line_pages(line)}
            assert len(homes) == 1


class TestHomesAndFree:
    def test_unallocated_page_has_no_home(self):
        a = make()
        with pytest.raises(MemoryError_):
            a.home_of_page(12345)

    def test_page_zero_reserved(self):
        a = make()
        with pytest.raises(MemoryError_):
            a.home_of_page(0)

    def test_free_validates(self):
        a = make()
        addr = a.shared_alloc(100 << 10)
        a.free(addr)
        with pytest.raises(AllocationError):
            a.free(addr)  # double free
        with pytest.raises(AllocationError):
            a.free(0xDEAD000)

    def test_total_pages_grows(self):
        a = make()
        before = a.total_pages
        a.shared_alloc(1 << 19)
        assert a.total_pages > before
