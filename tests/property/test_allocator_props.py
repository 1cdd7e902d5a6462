"""Property tests: allocator invariants under random allocation sequences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocationKind, SamhitaAllocator
from repro.core.params import SamhitaConfig

sizes = st.integers(1, 4 << 20)
alloc_requests = st.lists(st.tuples(st.integers(0, 3), sizes),
                          min_size=1, max_size=40)


def _alloc(allocator, tid, size):
    """Drive the allocator the way the manager + thread paths do."""
    kind = allocator.classify(size)
    if kind is AllocationKind.ARENA:
        addr = allocator.arena_alloc(tid, size)
        if addr is None:
            allocator.refill_arena(tid, size)
            addr = allocator.arena_alloc(tid, size)
        return addr
    if kind is AllocationKind.SHARED_ZONE:
        return allocator.shared_alloc(size, tid)
    return allocator.striped_alloc(size, tid)


@given(alloc_requests, st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_allocations_never_overlap(requests, n_servers):
    allocator = SamhitaAllocator(SamhitaConfig(n_memory_servers=n_servers))
    intervals = []
    for tid, size in requests:
        addr = _alloc(allocator, tid, size)
        assert addr is not None and addr > 0
        intervals.append((addr, addr + size, tid))
    intervals.sort()
    for (s1, e1, _), (s2, _, _) in zip(intervals, intervals[1:]):
        assert s2 >= e1, "allocations overlap"


@given(alloc_requests, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_every_allocated_page_has_exactly_one_home(requests, n_servers):
    allocator = SamhitaAllocator(SamhitaConfig(n_memory_servers=n_servers))
    layout = allocator.layout
    for tid, size in requests:
        addr = _alloc(allocator, tid, size)
        for page in layout.pages_spanning(addr, size):
            home = allocator.home_of_page(page)
            assert 0 <= home < n_servers
            # Stable: asking twice gives the same answer.
            assert allocator.home_of_page(page) == home


@given(alloc_requests)
@settings(max_examples=60, deadline=None)
def test_lines_never_split_across_servers(requests):
    allocator = SamhitaAllocator(SamhitaConfig(n_memory_servers=3))
    layout = allocator.layout
    for tid, size in requests:
        addr = _alloc(allocator, tid, size)
        for line in layout.lines_of(
                np.asarray(layout.pages_spanning(addr, size))):
            homes = set()
            for page in layout.line_pages(line):
                try:
                    homes.add(allocator.home_of_page(page))
                except Exception:
                    pass  # line tail outside any allocation
            assert len(homes) <= 1, f"line {line} spans servers {homes}"


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 60_000)),
                min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_arena_allocations_are_thread_private_pages(requests):
    """No page ever holds arena data of two different threads."""
    allocator = SamhitaAllocator(SamhitaConfig())
    layout = allocator.layout
    page_owner: dict[int, int] = {}
    for tid, size in requests:
        addr = _alloc(allocator, tid, size)
        for page in layout.pages_spanning(addr, size):
            owner = page_owner.setdefault(page, tid)
            assert owner == tid, "arena page shared between threads"


@given(alloc_requests)
@settings(max_examples=40, deadline=None)
def test_classification_is_monotone_in_size(requests):
    allocator = SamhitaAllocator(SamhitaConfig())
    order = {AllocationKind.ARENA: 0, AllocationKind.SHARED_ZONE: 1,
             AllocationKind.STRIPED: 2}
    sizes_sorted = sorted(size for _, size in requests)
    kinds = [order[allocator.classify(s)] for s in sizes_sorted]
    assert kinds == sorted(kinds)
