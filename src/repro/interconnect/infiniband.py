"""InfiniBand links.

The paper's testbed uses QDR (quad data rate) 4x InfiniBand. The effective
payload bandwidth is the usual published application-level number (after
8b/10b coding and protocol overhead), and the latency is the end-to-end
verbs latency including the HCA.
"""

from __future__ import annotations

from repro.interconnect.base import LinkModel


def ib_qdr() -> LinkModel:
    """Quad data rate 4x (the paper's fabric): ~1.3 us, ~3.2 GB/s payload."""
    return LinkModel("ib-qdr-4x", latency=1.3e-6, bandwidth=3.2e9, mtu=2048,
                     per_packet_overhead=5e-9)
