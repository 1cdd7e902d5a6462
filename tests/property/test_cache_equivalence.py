"""The columnar ``SoftwareCache`` against the dict-of-records reference.

A hypothesis state machine drives both with the same random operations --
install / install_many / read / write (ordinary and consistency-region) /
invalidate (a page set, or a barrier directive with dirty pages skipped) /
begin_fetch (a set or a page vector) / take_diff / take_diffs (a batch
with clean and non-resident members) / take_diff_sizes / choose_victims /
evict -- under all three policies, functional and timing,
with spans on both sides of the narrow/wide dispatch, pages on both sides
of a table chunk boundary, and pages dirtied in one range or several. After every
step: equal residency, ticks, prefetched flags, dirty ranges, write
notices, invalidation epochs and counters; every diff equal in spans,
sizes and bytes; every victim list equal. Functional draws run at two page
sizes, because a page's bytes and twin are rows as wide as a page.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.core.consistency import plan_barrier
from repro.memory import (EvictionPolicy, MemoryLayout, PageDirectory,
                          SoftwareCache)
from repro.memory.cache import WIDE
from repro.memory.pagetable import CHUNK_PAGES
from tests.memory.reference_cache import ReferenceCache

LAYOUT = MemoryLayout(page_bytes=64, pages_per_line=2)
#: The page universe straddles a chunk boundary and is wider than 2 * WIDE.
FIRST = CHUNK_PAGES - 12
N_PAGES = 24
CAPACITY = 20
COUNTERS = ("installs", "prefetch_installs", "evictions", "evictions_dirty",
            "evictions_clean", "invalidations", "page_touches",
            "prefetch_hits", "reads", "read_bytes", "writes", "write_bytes",
            "twins_created", "diffs_taken", "diff_bytes")

pages = st.integers(FIRST, FIRST + N_PAGES - 1)
#: Half the accesses stay inside one page (sub-page ranges are what spill
#: and what twins snapshot); the rest sit around the narrow/wide dispatch.
#: Byte offsets within a page, in eighths of a page: coarse so that
#: ranges touch and overlap.
picks = st.integers(0, 1 << 16)
offsets = st.integers(0, 8)
span_lengths = st.sampled_from([1, 1, 1, 1, 2, 3, WIDE - 1, WIDE, 2 * WIDE])
page_sets = st.sets(pages, max_size=N_PAGES)


def diff_record(diff):
    if diff is None:
        return None
    return (diff.page, diff.sizes.tolist(), diff.wire_bytes,
            [(off, None if data is None else bytes(data))
             for off, data in diff.spans])


class CacheEquivalence(RuleBasedStateMachine):
    layout = LAYOUT

    @initialize(policy=st.sampled_from(list(EvictionPolicy)),
                functional=st.booleans(), use_twins=st.booleans())
    def build(self, policy, functional, use_twins):
        self._build(policy, functional, use_twins)

    def _build(self, policy, functional, use_twins):
        self.functional, self.use_twins = functional, use_twins
        self.page = self.layout.page_bytes
        self.cache = SoftwareCache(self.layout, CAPACITY, functional=functional,
                                   policy=policy, use_twins=use_twins)
        self.ref = ReferenceCache(self.layout, CAPACITY, functional=functional,
                                  policy=policy, use_twins=use_twins)
        self.tokens = []
        self.fill = 0
        self.install_many(FIRST + 2, 2 * WIDE, set(), False)

    def _bytes(self, n):
        """Fresh page or store payload (None in timing mode)."""
        if not self.functional:
            return None
        self.fill += 1
        return (np.arange(n) * 7 + self.fill).astype(np.uint8)

    def _span(self, pick, n):
        """A resident run of up to ``n`` pages, as ``(first, length)``. Two
        hot pages take half the picks, so single pages collect several
        ranges, extents that grow both ways, and rewrites."""
        resident = sorted(self.ref.entries)
        choices = resident[:2] * len(resident) + resident
        first = choices[pick % len(choices)]
        length = 1
        while length < n and first + length in self.ref.entries:
            length += 1
        return first, length

    # -- residency -------------------------------------------------------
    @rule(page=pages, prefetched=st.booleans())
    def install(self, page, prefetched):
        if len(self.ref.entries) >= CAPACITY:
            return
        if page in self.ref.entries and not self.ref.entries[page].dirty.empty:
            return  # refreshing a dirty page is a protocol error
        data = self._bytes(self.page)
        self.cache.install(page, data, prefetched)
        self.ref.install(page, None if data is None else data.copy(), prefetched)

    @rule(first=pages, n=st.integers(0, 2 * WIDE), extra=page_sets,
          prefetched=st.booleans())
    def install_many(self, first, n, extra, prefetched):
        """A contiguous run (what a fetch brings) plus scattered riders."""
        batch = [p for p in [*range(first, min(first + n, FIRST + N_PAGES)),
                             *sorted(extra - set(range(first, first + n)))]
                 if p not in self.ref.entries]
        batch = batch[:CAPACITY - len(self.ref.entries)]
        data = {p: self._bytes(self.page) for p in batch} if self.functional else {}
        self.cache.install_many(batch, data, prefetched)
        self.ref.install_many(batch, {p: d.copy() for p, d in data.items()},
                              prefetched)

    @rule(stale=page_sets)
    def invalidate(self, stale):
        stale -= {p for p, e in self.ref.entries.items() if not e.dirty.empty}
        assert self.cache.invalidate(stale) == len(self.ref.invalidate(stale))

    @rule(mine=page_sets, others=page_sets)
    def barrier_invalidate(self, mine, others):
        """A barrier directive is resolved against the pages held and the
        pages in flight, never listed; locally dirty pages are skipped."""
        plan = plan_barrier({0: sorted(mine), 1: sorted(others)},
                            PageDirectory())
        directive = plan.directive(0)
        clean = set(directive) - {p for p, e in self.ref.entries.items()
                                  if not e.dirty.empty}
        assert (self.cache.invalidate(directive, skip_dirty=True)
                == len(self.ref.invalidate(clean)))

    @rule(batch=page_sets, as_vector=st.booleans())
    def begin_fetch(self, batch, as_vector):
        given = np.array(sorted(batch), dtype=np.int64) if as_vector else batch
        self.tokens.append((self.cache.begin_fetch(given),
                            self.ref.begin_fetch(batch)))

    @precondition(lambda self: self.tokens)
    @rule()
    def end_fetch(self):
        token, ref_token = self.tokens.pop()
        self.cache.end_fetch(token)
        self.ref.end_fetch(ref_token)

    @precondition(lambda self: self.ref.entries)
    @rule(pick=picks)
    def evict(self, pick):
        page = self._span(pick, 1)[0]
        assert (diff_record(self.cache.evict(page))
                == diff_record(self.ref.evict(page)))

    @precondition(lambda self: self.ref.entries)
    @rule(count=st.integers(1, CAPACITY), protect=page_sets)
    def choose_victims(self, count, protect):
        count = min(count, len(self.ref.entries.keys() - protect))
        assert (self.cache.choose_victims(count, protect)
                == self.ref.choose_victims(count, protect))

    # -- access ----------------------------------------------------------
    @precondition(lambda self: self.ref.entries)
    @rule(pick=picks, n=span_lengths, head=offsets, tail=offsets)
    def read(self, pick, n, head, tail):
        first, n = self._span(pick, n)
        if head == 8 or tail == 0 or (n == 1 and tail <= head):
            return
        page = self.page
        addr = first * page + head * page // 8
        nbytes = (n - 1) * page + (tail - head) * page // 8
        got = self.cache.read(addr, nbytes)
        want = self.ref.read(addr, nbytes)
        assert (None if got is None else bytes(got)) == want

    @precondition(lambda self: self.ref.entries)
    @rule(stores=st.lists(st.tuples(picks, span_lengths, offsets, offsets,
                                    st.booleans(), st.booleans()),
                          min_size=1, max_size=6))
    def write(self, stores):
        """A burst of stores (kernels write far more often than they sync)."""
        for pick, n, head, tail, ordinary, rewrite in stores:
            first, n = self._span(pick, n)
            if head == 8 or tail == 0 or (n == 1 and tail <= head):
                continue
            page = self.page
            at = head * page // 8
            addr = first * page + at
            nbytes = (n - 1) * page + (tail - head) * page // 8
            payload = self._bytes(nbytes)
            if rewrite and self.functional:
                # Store what is already there: value-based diffs skip it.
                payload = np.concatenate(
                    [self.ref.entries[p].data for p in range(first, first + n)]
                )[at:at + nbytes].copy()
            self.cache.write(addr, nbytes, payload, ordinary=ordinary)
            self.ref.write(addr, nbytes, payload, ordinary=ordinary)
            self.same_state()

    # -- diffs -----------------------------------------------------------
    @precondition(lambda self: self.ref.entries)
    @rule(pick=picks)
    def take_diff(self, pick):
        page = self._span(pick, 1)[0]
        assert (diff_record(self.cache.take_diff(page))
                == diff_record(self.ref.take_diff(page)))

    @rule(pick=picks, n=st.integers(0, 2 * WIDE), extra=page_sets)
    def take_diffs(self, pick, n, extra):
        """A recall's batch: a run plus scattered pages, clean, spilled and
        non-resident members included, in the order given."""
        first = self._span(pick, 1)[0] if self.ref.entries else FIRST
        batch = [*range(first, first + n),
                 *sorted(extra - set(range(first, first + n)))]
        want = [self.ref.take_diff(p) for p in batch
                if p in self.ref.entries and not self.ref.entries[p].dirty.empty]
        assert ([diff_record(d) for d in self.cache.take_diffs(batch)]
                == [diff_record(d) for d in want])

    @precondition(lambda self: not self.functional and self.use_twins)
    @rule(pick=picks, n=st.integers(0, 2 * WIDE), extra=page_sets)
    def take_diff_sizes(self, pick, n, extra):
        first = self._span(pick, 1)[0] if self.ref.entries else FIRST
        batch = [*range(first, first + n),
                 *sorted(extra - set(range(first, first + n)))]
        pages, payload, wire = self.cache.take_diff_sizes(batch)
        assert ((pages.tolist(), payload, wire)
                == self.ref.take_diff_sizes(batch))

    # -- the comparison --------------------------------------------------
    @invariant()
    def same_state(self):
        cache, ref = self.cache, self.ref
        assert cache.resident_page_set() == ref.entries.keys()
        assert cache.resident_pages == len(ref.entries)
        assert cache.epoch_written == ref.epoch_written
        assert +cache.inval_epoch == +ref.inval_epoch
        assert ({k: cache.stats.get(k) for k in COUNTERS}
                == {k: ref.stats[k] for k in COUNTERS})
        assert cache.dirty_page_ids() == sorted(
            p for p, e in ref.entries.items() if not e.dirty.empty)
        entries = cache.entries  # one snapshot per check, not per page
        for page, want in ref.entries.items():
            got = entries[page]
            assert got.last_access == want.last_access
            assert got.prefetched == bool(want.prefetched)
            assert list(got.dirty) == list(want.dirty)
            assert cache.is_dirty(page) == (not want.dirty.empty)
            if self.functional:
                assert bytes(got.data) == bytes(want.data)
        span = range(FIRST, FIRST + N_PAGES)
        missing = [p for p in span if p not in ref.entries]
        assert cache.missing_in(span.start, span.stop).tolist() == missing
        backwards = np.array(span[::-1], dtype=np.int64)
        assert cache.missing_among(backwards).tolist() == missing[::-1]
        assert cache.missing_among(backwards[:WIDE - 1]).tolist() == [
            p for p in span[::-1][:WIDE - 1] if p not in ref.entries]
        assert cache.span_resident(FIRST * self.page, N_PAGES * self.page) == (
            len(ref.entries) == N_PAGES)


class WideRowEquivalence(CacheEquivalence):
    """Functional draws at a second page size (1 KiB rows)."""
    layout = MemoryLayout(page_bytes=1024, pages_per_line=2)

    @initialize(policy=st.sampled_from(list(EvictionPolicy)),
                use_twins=st.booleans())
    def build(self, policy, use_twins):
        self._build(policy, True, use_twins)


TestCacheEquivalence = CacheEquivalence.TestCase
TestCacheEquivalence.settings = settings(max_examples=300,
                                         stateful_step_count=80, deadline=None)
TestWideRowEquivalence = WideRowEquivalence.TestCase
TestWideRowEquivalence.settings = settings(max_examples=100,
                                           stateful_step_count=80, deadline=None)
