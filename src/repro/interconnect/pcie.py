"""PCI Express hop models.

In the cluster experiments each InfiniBand message also crosses a PCIe hop on
both sides (HCA attach); in the heterogeneous-node configuration PCIe *is*
the fabric between host and coprocessor. PCIe is a shared bus from the
coprocessor's perspective, so these links default to ``contended=True``.
"""

from __future__ import annotations

from repro.interconnect.base import LinkModel


def pcie_gen2_x8(contended: bool = True) -> LinkModel:
    """PCIe 2.0 x8 (typical IB HCA slot): ~0.3 us, ~3.2 GB/s effective."""
    return LinkModel("pcie-gen2-x8", latency=0.3e-6, bandwidth=3.2e9,
                     contended=contended)


def pcie_gen2_x16(contended: bool = True) -> LinkModel:
    """PCIe 2.0 x16 (Xeon Phi KNC attach): ~0.9 us, ~6.0 GB/s effective."""
    return LinkModel("pcie-gen2-x16", latency=0.9e-6, bandwidth=6.0e9,
                     contended=contended)
