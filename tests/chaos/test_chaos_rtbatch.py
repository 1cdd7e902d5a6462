"""Chaos: the batched round-trip protocol under fault schedules.

One modeled round trip carries many lines, so a lost or replayed message
is a lost or replayed *batch*; these cells run the canonical drop/latency
schedules and assert:

* final data is bit-identical to the fault-free run, and to the bytes the
  per-operation protocol computed for this cell (recorded at PR 8);
* the faulty run still aggregates (a live ``round_trips`` ledger with
  multi-line trips), i.e. faults didn't silently degrade the protocol to
  per-page trips;
* the retry counters prove the loss-bearing schedules actually hit the
  batched protocol;
* under a pure duplicate storm every replay is discarded and the data
  stays exact.
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


#: ``(gdiff, sha256 of the final grid)`` of this cell under the unbatched
#: per-line protocol, recorded at the PR 8 tree. Faults never change data,
#: so one digest covers every schedule.
UNBATCHED_PR8 = (7.8125, "2b3e7a116b07bdfd16475c9584b7b7e1"
                         "8394155fdfc4cc67038985f54f9e34b2")


def _run(plan=None):
    config = SamhitaConfig(faults=plan)
    result = run_workload_direct("samhita", N_THREADS, spawn_jacobi, PARAMS,
                                 functional=True, config=config)
    gdiff, grid = result.threads[0].value
    return gdiff, hashlib.sha256(grid.tobytes()).hexdigest(), result


@pytest.fixture(scope="module")
def baseline():
    """Fault-free run: the data every faulty cell must reproduce."""
    gdiff, digest, result = _run()
    return gdiff, digest, result


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["drop_storm", "latency_storm"])
def test_batched_data_survives_faults(baseline, profile, seed):
    plan = chaos_profiles(seed)[profile]
    gdiff, digest, result = _run(plan)
    assert (gdiff, digest) == baseline[:2]

    faults = result.stats["faults"]
    if profile == "drop_storm":
        # Lost batch requests/replies must go through the retry protocol.
        assert faults.get("retries", 0) > 0
        assert faults.get("timeouts", 0) > 0
        assert faults.get("retransmits", 0) > 0
    else:
        assert faults.get("delay_spikes", 0) > 0

    # Faults may shrink batches (retried lines re-fetch) but must not
    # silently disable aggregation: trips still carry >1 line on average.
    rt = result.stats["round_trips"]
    assert rt["trips"] > 0
    assert rt["lines"] > rt["trips"]


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["drop_storm", "latency_storm"])
def test_batched_matches_unbatched_under_faults(profile, seed):
    """Under a fault schedule the batched protocol ends on the bytes the
    unbatched protocol computed."""
    plan = chaos_profiles(seed)[profile]
    assert _run(plan)[:2] == UNBATCHED_PR8


@pytest.mark.parametrize("seed", chaos_seeds())
def test_batched_chaos_replays_bit_identically(seed):
    """Determinism under faults survives batching: the whole faulty
    trajectory (data, modeled time, fault counters) replays exactly."""
    plan = chaos_profiles(seed)["drop_storm"]
    first = _run(plan)
    second = _run(plan)
    assert first[:2] == second[:2]
    assert first[2].elapsed == second[2].elapsed
    assert first[2].stats["faults"] == second[2].stats["faults"]
    assert first[2].stats["round_trips"] == second[2].stats["round_trips"]


def test_batched_duplicate_storm_deduplicated(baseline):
    """Replayed batch messages are discarded by their receiver -- a
    double-applied batch would install pages or merge diffs twice."""
    from repro.faults import FaultPlan

    plan = FaultPlan(seed=5, duplicate_rate=0.05)
    gdiff, digest, result = _run(plan)
    assert (gdiff, digest) == baseline[:2]
    assert result.stats["faults"]["dup_msgs_discarded"] > 0
