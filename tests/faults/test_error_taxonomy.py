"""The retryable-vs-fatal error taxonomy the recovery loops dispatch on.

Recovery code branches on ``err.retryable`` / ``err.recovery`` (via
:func:`repro.errors.recovery_action`), never on isinstance chains --
these tests pin the classification of every error class so a taxonomy
change is a conscious decision, not an accident."""

import pytest

from repro.errors import (
    AllocationError,
    CommunicationError,
    ConsistencyError,
    MemoryError_,
    ProtectionError,
    ReplicationError,
    ReproError,
    RetryableError,
    RetryExhaustedError,
    SimulationError,
    TopologyError,
    recovery_action,
)


class Transient(RetryableError, CommunicationError):
    """No class in the package takes the mixin's default action today; this
    one keeps ``"backoff"``, which ``rtbatch.recover`` dispatches on, in
    the table."""


def _transient():
    return Transient("hiccup")


def _exhausted():
    return RetryExhaustedError("node0", "node1", "page", 64, now=1e-3)


class TestClassification:
    def test_base_is_fatal(self):
        assert ReproError.retryable is False
        assert ReproError.recovery is None

    @pytest.mark.parametrize("make,action", [
        (_transient, "backoff"),
        (_exhausted, "failover"),
    ])
    def test_retryable_errors_carry_their_action(self, make, action):
        err = make()
        assert err.retryable is True
        assert err.recovery == action
        assert recovery_action(err) == action

    @pytest.mark.parametrize("cls", [
        ReproError, SimulationError, TopologyError, CommunicationError,
        ReplicationError, MemoryError_, AllocationError, ProtectionError,
        ConsistencyError,
    ])
    def test_fatal_errors_have_no_action(self, cls):
        err = cls("boom")
        assert err.retryable is False
        assert recovery_action(err) is None

    def test_non_repro_exceptions_are_fatal(self):
        # Programming errors must never be swallowed by a recovery loop.
        assert recovery_action(TypeError("bug")) is None
        assert recovery_action(ValueError("bug")) is None

    def test_retryable_mixin_defaults_to_backoff(self):
        err = Transient("hiccup")
        assert err.retryable is True
        assert recovery_action(err) == "backoff"

