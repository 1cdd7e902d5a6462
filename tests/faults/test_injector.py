"""Unit tests for the fault plan / injector layer."""

import pytest

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan, RetryPolicy


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ReproError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ReproError):
            FaultPlan(corrupt_rate=-0.1)

    def test_windows_validated(self):
        with pytest.raises(ReproError):
            FaultPlan(server_crash_windows=(("node1", 2.0, 1.0),))
        with pytest.raises(ReproError):
            FaultPlan(link_flaps=(("a", "b", 0.0),))

    def test_network_splits_are_not_in_the_model(self):
        # One PCIe node over verbs RC does not split (DESIGN.md S13).
        with pytest.raises(TypeError):
            FaultPlan(partitions=((("node1",), 0.0, 1e-4),))
        with pytest.raises(ImportError):
            from repro.faults import partition  # noqa: F401

    def test_retry_policy_validated(self):
        with pytest.raises(ReproError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ReproError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(max_backoff=1e-6, timeout=1e-3)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(timeout=10e-6, backoff=2.0, max_backoff=35e-6)
        assert policy.delay(1) == 10e-6
        assert policy.delay(2) == 20e-6
        assert policy.delay(3) == 35e-6   # capped, not 40e-6
        assert policy.delay(10) == 35e-6


class TestInjectorDeterminism:
    MESSAGES = [("node2", "node1", "fetch_req", i * 1e-5) for i in range(400)]

    def _verdicts(self, plan):
        inj = FaultInjector(plan)
        return [inj.decide(*msg) for msg in self.MESSAGES]

    def test_same_seed_same_verdicts(self):
        plan = FaultPlan(seed=7, drop_rate=0.05, corrupt_rate=0.02,
                         latency_spike_rate=0.03, duplicate_rate=0.02)
        assert self._verdicts(plan) == self._verdicts(plan)

    def test_different_seed_different_verdicts(self):
        a = FaultPlan(seed=1, drop_rate=0.2)
        b = FaultPlan(seed=2, drop_rate=0.2)
        assert self._verdicts(a) != self._verdicts(b)

    def test_silent_plan_never_draws(self):
        """An all-zero plan must not consume RNG state: its verdict stream
        is None regardless of message count, so the armed-but-silent
        trajectory matches the injector-absent build."""
        inj = FaultInjector(FaultPlan(seed=7))
        state_before = inj._rng.getstate()
        for msg in self.MESSAGES:
            assert inj.decide(*msg) is None
        assert inj._rng.getstate() == state_before

    def test_crash_window_drops_only_inbound_during_window(self):
        plan = FaultPlan(seed=0,
                         server_crash_windows=(("node1", 1e-3, 2e-3),))
        inj = FaultInjector(plan)
        assert inj.decide("node2", "node1", "fetch_req", 1.5e-3) == \
            ("drop", "crash_drops")
        # Outside the window, and messages *from* the crashed server's
        # peers to someone else, flow normally.
        assert inj.decide("node2", "node1", "fetch_req", 2.5e-3) is None
        assert inj.decide("node2", "node0", "lock", 1.5e-3) is None

    def test_link_flap_is_bidirectional(self):
        plan = FaultPlan(seed=0, link_flaps=(("a", "b", 0.0, 1.0),))
        inj = FaultInjector(plan)
        assert inj.decide("a", "b", "data", 0.5) == ("drop", "flap_drops")
        assert inj.decide("b", "a", "data", 0.5) == ("drop", "flap_drops")
        assert inj.decide("a", "c", "data", 0.5) is None
        assert inj.decide("a", "b", "data", 1.5) is None

