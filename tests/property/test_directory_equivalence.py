"""The owner-column directory against the dict-of-sets reference.

A hypothesis state machine drives ``PageDirectory`` and the reference with
the same operations -- single-page and bulk owner records / clears, owner
gathers (with and without the requester excluded), the IVY sharer
operations -- over pages that straddle a table chunk boundary and a shard
address-slice boundary (every shard shares the one directory), in batches
inside one table chunk and across two. After every step: same
owners, same ``owned_by``, same length, same membership, same sharers, same
counters.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.allocator import SHARD_SLICE_PAGES
from repro.memory import PageDirectory
from repro.memory.pagetable import CHUNK_PAGES
from tests.memory.reference_directory import ReferenceDirectory

#: Two windows of pages: one across a chunk boundary inside shard slice 0,
#: one across the boundary between slices 1 and 2. 36 pages each: batches
#: reach past 16 pages, where the page table once stopped walking, on
#: either side of the boundary.
WINDOW = 36
UNIVERSE = ([CHUNK_PAGES - WINDOW // 2 + i for i in range(WINDOW)]
            + [2 * SHARD_SLICE_PAGES - WINDOW // 2 + i for i in range(WINDOW)])
pages = st.sampled_from(UNIVERSE)
tids = st.integers(0, 5)
batches = st.lists(pages, unique=True, max_size=len(UNIVERSE))
COUNTERS = ("owners_recorded", "owners_cleared")


class DirectoryEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ref = ReferenceDirectory()
        self.directory = PageDirectory()

    # -- owners ----------------------------------------------------------
    @rule(page=pages, tid=tids)
    def record_owner(self, page, tid):
        self.ref.record_owner(page, tid)
        self.directory.record_owner(page, tid)

    @rule(page=pages)
    def clear_owner(self, page):
        self.ref.clear_owner(page)
        self.directory.clear_owner(page)

    @rule(batch=batches, tid=tids, as_vector=st.booleans())
    def record_owners_one_thread(self, batch, tid, as_vector):
        self.ref.record_owners(batch, tid)
        given = np.array(batch, dtype=np.int64) if as_vector else batch
        self.directory.record_owners(given, tid)

    @rule(batch=batches, data=st.data())
    def record_owners_aligned(self, batch, data):
        """What a barrier plan does: one call, one owner per page."""
        owners = data.draw(st.lists(tids, min_size=len(batch),
                                    max_size=len(batch)))
        self.ref.record_owners(batch, owners)
        self.directory.record_owners(np.array(batch, dtype=np.int64),
                                     np.array(owners, dtype=np.int64))

    @rule(batch=batches, as_vector=st.booleans())
    def clear_owners(self, batch, as_vector):
        self.ref.clear_owners(batch)
        given = np.array(batch, dtype=np.int64) if as_vector else set(batch)
        self.directory.clear_owners(given)

    @rule(batch=batches, but=st.one_of(st.none(), tids))
    def owners_of(self, batch, but):
        got = self.directory.owners_of(np.array(batch, dtype=np.int64), but)
        assert got.tolist() == self.ref.owners_of(batch, but)

    # -- sharers (IVY) ---------------------------------------------------
    @rule(page=pages, tid=tids)
    def add_sharer(self, page, tid):
        self.ref.add_sharer(page, tid)
        self.directory.add_sharer(page, tid)

    @rule(batch=batches, tid=tids, as_vector=st.booleans())
    def add_sharers(self, batch, tid, as_vector):
        self.ref.add_sharers(batch, tid)
        given = np.array(batch, dtype=np.int64) if as_vector else batch
        self.directory.add_sharers(given, tid)

    @rule(page=pages, tid=tids)
    def remove_sharer(self, page, tid):
        self.ref.remove_sharer(page, tid)
        self.directory.remove_sharer(page, tid)

    # -- after every step ------------------------------------------------
    @invariant()
    def same_state(self):
        ref, d = self.ref, self.directory
        assert len(d) == len(ref)
        assert d.owned_by() == ref.owned_by()
        for tid in range(6):
            assert d.owned_by(tid) == ref.owned_by(tid)
        for page in UNIVERSE:
            assert d.owner_of(page) == ref.owner_of(page)
            assert (page in d) == (page in ref)
            assert d.sharers_of(page) == ref.sharers_of(page)
        assert ({k: d.stats.get(k) for k in COUNTERS}
                == {k: ref.counters[k] for k in COUNTERS})


DirectoryEquivalence.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestDirectoryEquivalence = DirectoryEquivalence.TestCase
