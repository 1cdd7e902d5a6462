"""Per-core compute cost model.

Kernels describe work in *elements* (one inner-loop body execution over one
data element) or raw flops; this model converts that to simulated seconds for
the core the thread runs on. The conversion is intentionally simple -- the
paper's comparisons all run the same kernel on cores of the same speed, so
only the *ratio* of compute cost to communication cost needs to be realistic.
"""

from __future__ import annotations

from repro.hardware.specs import CPUSpec


class ComputeCostModel:
    """Converts abstract work units into simulated time for one CPU spec."""

    def __init__(self, cpu: CPUSpec):
        self.cpu = cpu

    def element_time(self, elements: int, flops_per_element: float = 2.0) -> float:
        """Time to process ``elements`` inner-loop elements.

        The calibrated ``element_op_time`` covers the paper's 2-flop body;
        other bodies scale linearly in their flop count.
        """
        if elements < 0:
            raise ValueError("elements must be >= 0")
        scale = flops_per_element / 2.0
        return elements * self.cpu.element_op_time * scale

    def flop_time(self, flops: float) -> float:
        """Time for ``flops`` raw floating-point operations."""
        if flops < 0:
            raise ValueError("flops must be >= 0")
        return flops * self.cpu.flop_time
