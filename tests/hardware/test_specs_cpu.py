"""Tests for the machine catalog and the compute cost model."""

import pytest

from repro.hardware import (
    CPUSpec,
    ComputeCostModel,
    PENRYN_CPU,
    PENRYN_NODE,
    XEON_PHI_KNC,
)


class TestSpecs:
    def test_penryn_node_matches_paper_testbed(self):
        # "dual quad-core 2.8GHz Intel Xeon ... with 8GB of main memory"
        assert PENRYN_NODE.cores == 8
        assert PENRYN_NODE.cpu.clock_hz == pytest.approx(2.8e9)
        assert PENRYN_NODE.dram_bytes == 8 << 30

    def test_knc_is_manycore_with_small_memory(self):
        assert XEON_PHI_KNC.cores >= 32
        assert XEON_PHI_KNC.dram_bytes <= 16 << 30
        # Per-core scalar speed is well below the host core's.
        assert XEON_PHI_KNC.cpu.element_op_time > PENRYN_CPU.element_op_time

    def test_flop_time_derived_from_clock(self):
        assert PENRYN_CPU.flop_time == pytest.approx(1.0 / (2.8e9 * 2.0))

    def test_specs_are_frozen(self):
        with pytest.raises(Exception):
            PENRYN_CPU.clock_hz = 1.0  # type: ignore[misc]


class TestComputeCostModel:
    def test_element_time_scales_linearly(self):
        model = ComputeCostModel(PENRYN_CPU)
        one = model.element_time(1)
        assert model.element_time(1000) == pytest.approx(1000 * one)

    def test_element_time_scales_with_flops_per_element(self):
        model = ComputeCostModel(PENRYN_CPU)
        assert model.element_time(10, flops_per_element=4.0) == pytest.approx(
            2.0 * model.element_time(10, flops_per_element=2.0))

    def test_zero_work_is_free(self):
        model = ComputeCostModel(PENRYN_CPU)
        assert model.element_time(0) == 0.0
        assert model.flop_time(0) == 0.0

    def test_negative_work_rejected(self):
        model = ComputeCostModel(PENRYN_CPU)
        with pytest.raises(ValueError):
            model.element_time(-1)
        with pytest.raises(ValueError):
            model.flop_time(-1)

    def test_slower_core_costs_more(self):
        fast = ComputeCostModel(CPUSpec("fast", 2e9, element_op_time=1e-9))
        slow = ComputeCostModel(CPUSpec("slow", 2e9, element_op_time=4e-9))
        assert slow.element_time(100) == pytest.approx(4 * fast.element_time(100))
