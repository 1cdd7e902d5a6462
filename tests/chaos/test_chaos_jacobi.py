"""Chaos: Jacobi under fault schedules ends with bit-identical data.

Faults are allowed to change *timing* (elapsed simulated time, message
counts); they must never change *data*. Each case runs the functional
Jacobi kernel under a seeded fault schedule and asserts the final grid
hash and convergence value equal the fault-free run's, and that the
recovery protocol actually worked for a living (nonzero counters).
"""

import hashlib

import pytest

from repro.core.params import SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.kernels.jacobi import JacobiParams, spawn_jacobi

from tests.chaos.conftest import chaos_profiles, chaos_seeds

pytestmark = pytest.mark.chaos

N_THREADS = 4
PARAMS = JacobiParams(rows=64, cols=256, iterations=3, collect_result=True)


def _run(config=None):
    result = run_workload_direct("samhita", N_THREADS, spawn_jacobi, PARAMS,
                                 functional=True, config=config)
    gdiff, grid = result.threads[0].value
    return gdiff, hashlib.sha256(grid.tobytes()).hexdigest(), result


@pytest.fixture(scope="module")
def baseline():
    gdiff, digest, result = _run()
    return gdiff, digest, result.elapsed


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["drop_storm", "latency_storm",
                                     "server_outage"])
def test_jacobi_data_survives_faults(baseline, profile, seed):
    plan = chaos_profiles(seed)[profile]
    gdiff, digest, result = _run(SamhitaConfig(faults=plan))
    assert gdiff == baseline[0]
    assert digest == baseline[1]
    faults = result.stats["faults"]
    if profile == "latency_storm":
        assert faults.get("delay_spikes", 0) > 0
    else:
        # Loss-bearing profiles must exercise the retry protocol.
        assert faults.get("retries", 0) > 0
        assert faults.get("timeouts", 0) > 0
        assert faults.get("retransmits", 0) > 0
    if profile == "server_outage":
        assert faults.get("crash_drops", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
def test_jacobi_chaos_replays_bit_identically(seed):
    """Same plan, same seed: the whole faulty trajectory replays exactly."""
    plan = chaos_profiles(seed)["drop_storm"]
    first = _run(SamhitaConfig(faults=plan))
    second = _run(SamhitaConfig(faults=plan))
    assert first[:2] == second[:2]
    assert first[2].elapsed == second[2].elapsed
    assert first[2].stats["faults"] == second[2].stats["faults"]


def test_duplicate_deliveries_are_deduplicated(baseline):
    """A pure duplicate storm: every replay is discarded by its receiver,
    with the handlers executing exactly once."""
    from repro.faults import FaultPlan

    plan = FaultPlan(seed=5, duplicate_rate=0.05)
    gdiff, digest, result = _run(SamhitaConfig(faults=plan))
    assert (gdiff, digest) == baseline[:2]
    assert result.stats["faults"]["dup_msgs_discarded"] > 0
