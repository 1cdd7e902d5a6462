"""Ethernet links -- the class of interconnect that killed 1990s DSM.

The paper's predecessor work argues DSM systems "never made a big impact
(primarily due to relatively slow interconnects)". These models let the
ablation benches replay that history: running the same Samhita workloads over
gigabit Ethernet instead of QDR InfiniBand.
"""

from __future__ import annotations

from repro.interconnect.base import LinkModel


def gigabit_ethernet() -> LinkModel:
    """1 GbE with kernel TCP stack: ~50 us, ~110 MB/s payload."""
    return LinkModel("1gbe-tcp", latency=50e-6, bandwidth=0.110e9, mtu=1500,
                     per_packet_overhead=1e-6)
