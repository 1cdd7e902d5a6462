"""Single-hop link model.

A link is priced as ``latency + ceil(nbytes / mtu) * per_packet_overhead +
nbytes / bandwidth``. The latency term is not serialized (messages pipeline
through it); the serialization term optionally is, when the link is marked
``contended`` and used through a :class:`~repro.interconnect.routing.Fabric`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class LinkModel:
    """Analytic model of one physical hop."""

    name: str
    latency: float               # one-way propagation + endpoint software, seconds
    bandwidth: float             # effective payload bandwidth, bytes/second
    per_packet_overhead: float = 0.0
    mtu: int = 0                 # 0 => no segmentation
    contended: bool = False      # serialize the bandwidth term through a Resource

    def __post_init__(self):
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError(f"invalid link parameters for {self.name!r}")
        if self.mtu < 0:
            raise ValueError("mtu must be >= 0")

    def serialize_time(self, nbytes: int) -> float:
        """Time the wire is busy with this transfer (the contended part)."""
        if nbytes <= 0:
            return 0.0
        time = nbytes / self.bandwidth
        if self.mtu and self.per_packet_overhead:
            time += math.ceil(nbytes / self.mtu) * self.per_packet_overhead
        elif self.per_packet_overhead:
            time += self.per_packet_overhead
        return time

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended end-to-end time for one message over this hop."""
        return self.latency + self.serialize_time(nbytes)

    def with_(self, **changes) -> "LinkModel":
        """A modified copy (per-edge names, half links, sweeps)."""
        return replace(self, **changes)
