"""Tests for barrier planning and lock update logs (RegC core logic)."""

import numpy as np
import pytest

from repro.core.consistency import LockUpdateLog, plan_barrier
from repro.memory import PageDiff, PageDirectory


class TestPlanBarrier:
    def test_no_notices_is_empty_plan(self):
        plan = plan_barrier({0: [], 1: []}, PageDirectory())
        assert {t: set(d) for t, d in plan.invalidate.items()} == {
            0: set(), 1: set()}
        assert plan.flush == {0: [], 1: []}
        assert plan.multi_writer_pages == set()

    def test_single_writer_keeps_page_and_gains_ownership(self):
        d = PageDirectory()
        plan = plan_barrier({0: [5], 1: []}, d)
        assert plan.flush == {0: [], 1: []}
        # Writer does not invalidate its own page; the other thread must.
        assert set(plan.invalidate[0]) == set()
        assert set(plan.invalidate[1]) == {5}
        assert d.owner_of(5) == 0

    def test_multi_writer_page_flushes_everywhere(self):
        d = PageDirectory()
        plan = plan_barrier({0: [5], 1: [5]}, d)
        assert plan.flush == {0: [5], 1: [5]}
        assert set(plan.invalidate[0]) == {5}
        assert set(plan.invalidate[1]) == {5}
        assert plan.multi_writer_pages == {5}
        assert d.owner_of(5) is None

    def test_multi_writer_clears_prior_ownership(self):
        d = PageDirectory()
        d.record_owner(5, 0)
        plan_barrier({0: [5], 1: [5]}, d)
        assert d.owner_of(5) is None

    def test_mixed_plan(self):
        d = PageDirectory()
        plan = plan_barrier({0: [1, 2], 1: [2, 3], 2: []}, d)
        assert plan.multi_writer_pages == {2}
        assert plan.flush[0] == [2] and plan.flush[1] == [2] and plan.flush[2] == []
        assert set(plan.invalidate[0]) == {2, 3}
        assert set(plan.invalidate[1]) == {1, 2}
        assert set(plan.invalidate[2]) == {1, 2, 3}
        assert d.owner_of(1) == 0 and d.owner_of(3) == 1

    def test_total_notices_counted(self):
        plan = plan_barrier({0: [1, 2], 1: [2]}, PageDirectory())
        assert plan.total_notices == 3


class TestLockUpdateLog:
    def _diff(self, page, nbytes):
        return PageDiff(page, spans=[(0, np.ones(nbytes, np.uint8))])

    def test_first_acquirer_sees_everything(self):
        log = LockUpdateLog()
        log.append([self._diff(1, 4)])
        log.append([self._diff(2, 6)])
        diffs, payload, spans, inval = log.updates_since(7)
        assert [d.page for d in diffs] == [1, 2]
        assert payload == 10
        assert spans == 2
        assert inval == []

    def test_second_call_sees_nothing_new(self):
        log = LockUpdateLog()
        log.append([self._diff(1, 4)])
        log.updates_since(0)
        diffs, payload, _, _ = log.updates_since(0)
        assert diffs == [] and payload == 0

    def test_interleaved_threads_each_get_their_gap(self):
        log = LockUpdateLog()
        log.append([self._diff(1, 4)])
        log.updates_since(0)          # thread 0 sees v1
        log.append([self._diff(2, 6)])
        d0, p0, _, _ = log.updates_since(0)
        d1, p1, _, _ = log.updates_since(1)
        assert [d.page for d in d0] == [2] and p0 == 6
        assert [d.page for d in d1] == [1, 2] and p1 == 10

    def test_invalidate_pages_accumulate_and_dedup(self):
        log = LockUpdateLog()
        log.append([], invalidate_pages=[3, 4])
        log.append([], invalidate_pages=[4, 5])
        _, _, _, inval = log.updates_since(0)
        assert inval == [3, 4, 5]

    def test_prune_requires_full_population(self):
        log = LockUpdateLog()
        log.append([self._diff(1, 4)])
        log.updates_since(0)
        # Thread 1 exists but never acquired: pruning with the full
        # population must keep the epoch alive for it.
        log.prune([0, 1])
        diffs, _, _, _ = log.updates_since(1)
        assert [d.page for d in diffs] == [1]

    def test_prune_drops_fully_consumed_epochs(self):
        log = LockUpdateLog()
        log.append([self._diff(1, 4)])
        log.updates_since(0)
        log.updates_since(1)
        log.prune([0, 1])
        assert len(log) == 0

    def test_never_acquired_thread_gets_full_retained_history_after_prune(self):
        log = LockUpdateLog()
        for page in (1, 2, 3):
            log.append([self._diff(page, 4)])
        log.updates_since(0)
        log.prune([0])                # thread 0 alone: everything consumed
        assert len(log) == 0
        for page in (4, 5):
            log.append([self._diff(page, 4)])
        # Thread 9 joins late; versions 1-3 are gone, 4-5 are all there is.
        diffs, payload, spans, _ = log.updates_since(9)
        assert [d.page for d in diffs] == [4, 5]
        assert (payload, spans) == (8, 2)
        assert log.last_seen[9] == log.version == 5

    def test_acquire_after_partial_prune_gets_the_unseen_suffix_in_order(self):
        log = LockUpdateLog()
        for page in range(1, 7):
            log.append([self._diff(page, page)], invalidate_pages=[page])
            if page == 2:
                log.updates_since(0)  # thread 0 has seen v1-v2
            if page == 4:
                log.updates_since(1)  # thread 1 has seen v1-v4
        log.prune([0, 1])             # horizon v2: v3-v6 retained
        assert len(log) == 4
        d0, p0, s0, i0 = log.updates_since(0)
        assert [d.page for d in d0] == [3, 4, 5, 6]
        assert (p0, s0, i0) == (18, 4, [3, 4, 5, 6])
        d1, p1, s1, i1 = log.updates_since(1)
        assert [d.page for d in d1] == [5, 6]
        assert (p1, s1, i1) == (11, 2, [5, 6])
        log.prune([0, 1])
        assert len(log) == 0
        assert log.updates_since(0) == ([], 0, 0, [])

    def test_absorbed_stash_keeps_versions_consecutive(self):
        """Records logged out of band (a drained ownership-cache stash)
        enter through ``append`` like any release, empty ones not at all:
        retained versions stay consecutive, which is what lets
        ``updates_since`` slice instead of filter."""
        from repro.core import SamhitaSystem

        system = SamhitaSystem.cluster(n_threads=2)
        for _ in range(2):
            system.add_thread()
        lock_id = system.create_lock()
        manager = system.manager
        log = manager._lock(lock_id).log
        log.append([self._diff(1, 4)])
        log.updates_since(1)
        stash = [([self._diff(2, 4)], 4, 1, ()),
                 ([], 0, 0, ()),              # empty record: not logged
                 ([self._diff(3, 4)], 4, 1, ())]
        manager.absorb_lock_stash(0, lock_id, stash)
        log.append([self._diff(4, 4)])
        assert [e.version for e in log._epochs] == [1, 2, 3, 4]
        assert log.last_seen[0] == 3  # the stasher has seen its own records
        diffs, _, _, _ = log.updates_since(1)
        assert [d.page for d in diffs] == [2, 3, 4]
        diffs, _, _, _ = log.updates_since(0)
        assert [d.page for d in diffs] == [4]

