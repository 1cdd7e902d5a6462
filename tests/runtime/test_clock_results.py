"""Tests for ThreadClock and RunResult aggregation."""

import pytest

from repro.runtime import RunResult, ThreadClock
from repro.runtime.results import ThreadResult


class TestThreadClock:
    def test_charge_buckets(self):
        clock = ThreadClock()
        clock.charge("compute", 1.0)
        clock.charge("sync", 0.5)
        clock.charge("compute", 0.25)
        assert clock.compute == 1.25
        assert clock.sync == 0.5
        assert clock.total == 1.75

    def test_detail_tracks_buckets_and_extras(self):
        clock = ThreadClock()
        clock.charge("compute", 1.0)
        clock.charge("compute", 0.4, key="fault")
        assert clock.detail["compute"] == 1.4
        assert clock.detail["fault"] == 0.4

    def test_unknown_bucket_rejected(self):
        with pytest.raises(ValueError):
            ThreadClock().charge("io", 1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            ThreadClock().charge("compute", -1.0)


def make_result(values):
    """values: list of (compute, sync)."""
    threads = {}
    for tid, (compute, sync) in enumerate(values):
        clock = ThreadClock()
        clock.charge("compute", compute)
        clock.charge("sync", sync)
        threads[tid] = ThreadResult(tid, clock, value=tid * 10)
    return RunResult(backend="test", n_threads=len(values),
                     elapsed=10.0, threads=threads)


class TestRunResult:
    def test_means_and_maxima(self):
        result = make_result([(1.0, 0.1), (3.0, 0.3)])
        assert result.mean_compute_time == pytest.approx(2.0)
        assert result.max_compute_time == pytest.approx(3.0)
        assert result.mean_sync_time == pytest.approx(0.2)
        assert result.max_sync_time == pytest.approx(0.3)

    def test_max_total_time_is_slowest_thread(self):
        result = make_result([(1.0, 1.0), (2.5, 0.1)])
        assert result.max_total_time == pytest.approx(2.6)

    def test_value_of(self):
        result = make_result([(1.0, 0.0), (1.0, 0.0)])
        assert result.value_of(1) == 10

    def test_empty_result_aggregates_to_zero(self):
        result = RunResult(backend="test", n_threads=0, elapsed=0.0)
        assert result.mean_compute_time == 0.0
        assert result.max_total_time == 0.0
