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
