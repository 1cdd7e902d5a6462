"""The bulk-trip retransmit-timer floor: a clean max-size bulk fetch must
never look like a lost message -- on the default machine or on the
two-server replicated one the gray-failure profiles run on."""

import hashlib

import pytest

from repro.core.params import MEMSERVER_SERVICE_TIME, SamhitaConfig
from repro.core.rtbatch import trip_timeout_floor
from repro.core.system import SamhitaSystem
from repro.experiments.harness import run_workload_direct
from repro.faults import FaultPlan
from repro.kernels.jacobi import JacobiParams, spawn_jacobi


class TestTripTimeoutFloor:
    def test_floor_grows_linearly_in_pages(self):
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(faults=FaultPlan(seed=0)))
        f1 = trip_timeout_floor(system, "node2", "node1", 1)
        f4 = trip_timeout_floor(system, "node2", "node1", 4)
        f16 = trip_timeout_floor(system, "node2", "node1", 16)
        assert f1 > 0
        # alpha + beta*k: equal per-page increments.
        assert f16 - f4 == pytest.approx((f4 - f1) * 4)

    def test_floor_covers_the_modeled_service_time(self):
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(faults=FaultPlan(seed=0)))
        assert (trip_timeout_floor(system, "node2", "node1", 1)
                > MEMSERVER_SERVICE_TIME)


class TestNoSpuriousRetransmits:
    """The regression the floor exists for: a clean (silent-plan) run
    whose bulk fetches carry the largest groups the workload produces
    must never time out -- with the injector armed, every retransmit
    would be spurious by construction."""

    @pytest.mark.parametrize("config", [
        SamhitaConfig(faults=FaultPlan(seed=0)),
        SamhitaConfig.grayfail(faults=FaultPlan(seed=0)),
    ], ids=["default", "grayfail"])
    def test_clean_bulk_fetches_never_retransmit(self, config):
        params = JacobiParams(rows=64, cols=256, iterations=3,
                              collect_result=True)
        result = run_workload_direct("samhita", 4, spawn_jacobi, params,
                                     functional=True, config=config)
        faults = result.stats.get("faults", {})
        assert faults.get("timeouts", 0) == 0
        assert faults.get("retransmits", 0) == 0
        assert faults.get("retries", 0) == 0

    def test_silent_plan_matches_injector_absent(self):
        params = JacobiParams(rows=64, cols=256, iterations=3,
                              collect_result=True)

        def digest(config):
            result = run_workload_direct("samhita", 4, spawn_jacobi,
                                         params, functional=True,
                                         config=config)
            _gdiff, grid = result.threads[0].value
            return hashlib.sha256(grid.tobytes()).hexdigest(), result.elapsed

        assert digest(None) == digest(SamhitaConfig(faults=FaultPlan(seed=0)))
