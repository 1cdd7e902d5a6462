"""The vector barrier planner against the set-based one it replaced.

For random write notices -- nobody writing, one writer, every page shared,
threads with nothing to report, notices as lists or as the ascending vectors
a cache hands over, pages on both sides of a table chunk boundary -- the
two planners must agree on every flush list, on the *membership* and the
arithmetic size of every thread's invalidate directive, on the multi-writer
pages, on the notice total, and on what they did to the directory; and a
directive resolved against a cache's pages must pick what the set would.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import plan_barrier
from repro.memory import PageDirectory
from repro.memory.pagetable import CHUNK_PAGES
from tests.core import reference_plan
from tests.memory.reference_directory import ReferenceDirectory

FIRST = CHUNK_PAGES - 20
pages = st.integers(FIRST, FIRST + 39)
notice_maps = st.one_of(
    # anything goes: duplicates, shared pages, empty threads
    st.dictionaries(st.integers(0, 9), st.lists(pages, max_size=24),
                    min_size=1, max_size=10),
    # every thread writes the same pages: all multi-writer
    st.builds(lambda tids, shared: {t: list(shared) for t in tids},
              st.sets(st.integers(0, 9), min_size=2, max_size=6),
              st.lists(pages, min_size=1, max_size=12)),
    # block partitions in thread order: the ascending fast path
    st.builds(lambda n, width: {t: list(range(FIRST + t * width,
                                              FIRST + (t + 1) * width))
                                for t in range(n)},
              st.integers(1, 6), st.integers(0, 6)),
)
prior_owners = st.dictionaries(pages, st.integers(0, 9), max_size=12)


def _seeded(directory, prior):
    for page, tid in prior.items():
        directory.record_owner(page, tid)
    return directory


@given(notice_maps, prior_owners, st.booleans(), st.sets(pages, max_size=30))
@settings(max_examples=300, deadline=None)
def test_plans_agree(notices, prior, as_vectors, held):
    ref_dir = _seeded(ReferenceDirectory(), prior)
    want = reference_plan.plan_barrier(notices, ref_dir)
    given_notices = ({t: np.unique(np.array(p, dtype=np.int64))
                      for t, p in notices.items()} if as_vectors else notices)
    directory = _seeded(PageDirectory(), prior)
    plan = plan_barrier(given_notices, directory)

    assert plan.flush == want.flush
    assert plan.multi_writer_pages == want.multi_writer_pages
    assert plan.multi.tolist() == sorted(want.multi_writer_pages)
    assert plan.total_notices == want.total_notices
    assert plan.pages.tolist() == sorted(
        set().union(*(set(p) for p in notices.values())))
    for tid in notices:
        directive = plan.directive(tid)
        assert set(directive) == want.invalidate[tid]
        assert len(directive) == len(want.invalidate[tid])
        # Resolved against what a cache holds, without being built.
        assert directive.intersection(set(held)) == (
            held & want.invalidate[tid])
    assert {t: set(d) for t, d in plan.invalidate.items()} == (
        want.invalidate)

    assert directory.owned_by() == ref_dir.owned_by()
    for page in range(FIRST, FIRST + 40):
        assert directory.owner_of(page) == ref_dir.owner_of(page)


@given(notice_maps, prior_owners)
@settings(max_examples=100, deadline=None)
def test_directory_counters_agree(notices, prior):
    ref_dir = _seeded(ReferenceDirectory(), prior)
    directory = _seeded(PageDirectory(), prior)
    reference_plan.plan_barrier(notices, ref_dir)
    plan_barrier(notices, directory)
    for key in ("owners_recorded", "owners_cleared"):
        assert directory.stats.get(key) == ref_dir.counters[key]
