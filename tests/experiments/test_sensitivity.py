"""Tests for the sensitivity-analysis helpers."""

import pytest

from repro.experiments.sensitivity import config_sensitivity, link_sensitivity
from repro.interconnect import gigabit_ethernet, ib_qdr
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench

SMALL = MicrobenchParams(N=3, M=2, S=2, B=256,
                         allocation=Allocation.GLOBAL_STRIDED)
LOCAL = MicrobenchParams(N=3, M=2, S=2, B=256, allocation=Allocation.LOCAL)


class TestConfigSensitivity:
    def test_manager_service_time_moves_sync_not_compute(self):
        fr = config_sensitivity("manager_service_time", [0.5e-6, 6e-6],
                                spawn_microbench, SMALL, n_threads=4)
        sync = fr.series["sync"]
        compute = fr.series["compute"]
        assert sync.y_at(6e-6) > 1.5 * sync.y_at(0.5e-6)
        assert compute.y_at(6e-6) < 1.5 * compute.y_at(0.5e-6)

    def test_fault_handler_time_moves_compute(self):
        fr = config_sensitivity("fault_handler_time", [0.5e-6, 20e-6],
                                spawn_microbench, SMALL, n_threads=4)
        compute = fr.series["compute"]
        assert compute.y_at(20e-6) > compute.y_at(0.5e-6)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            config_sensitivity("fault_handler_time", [1e-6],
                               spawn_microbench, SMALL, n_threads=2,
                               metrics=("latency",))


class TestLinkSensitivity:
    def test_slower_fabric_costs_more_everywhere(self):
        fr = link_sensitivity({"qdr": ib_qdr(), "gbe": gigabit_ethernet()},
                              spawn_microbench, SMALL, n_threads=4)
        assert fr.series["sync"].y_at(1) > fr.series["sync"].y_at(0)
        assert fr.series["compute"].y_at(1) > fr.series["compute"].y_at(0)
        assert fr.meta["fabrics"] == ["qdr", "gbe"]


class TestOrderingRobustness:
    def test_local_beats_strided_across_calibrations(self):
        """The paper's core ordering (local < strided compute time) survives
        an 8x swing in the fault-handler estimate."""
        values = [0.5e-6, 2e-6, 4e-6]
        local, strided = (
            config_sensitivity("fault_handler_time", values, spawn_microbench,
                               params, n_threads=4, metrics=("compute",))
            ["compute"] for params in (LOCAL, SMALL))
        for value in values:
            assert local.y_at(value) < strided.y_at(value)
