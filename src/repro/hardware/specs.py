"""Machine catalog.

All timing constants in this package are expressed in seconds and bytes.
The numbers below are published figures for the paper's testbed hardware
(2.8 GHz Penryn Harpertown Xeons, 8 GB/node) and for the Intel Xeon Phi
"Knights Corner" coprocessor that §V targets. They parameterize the compute
and cache cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CPUSpec:
    """A single core's performance envelope.

    ``element_op_time`` is the calibrated cost of one micro-benchmark inner
    element (2 flops + 2 loads + 1 store, see Figure 2); kernel cost models
    express their work in units of this.
    """

    name: str
    clock_hz: float
    flops_per_cycle: float = 2.0
    element_op_time: float = 1.2e-9

    @property
    def flop_time(self) -> float:
        """Seconds per scalar floating-point operation."""
        return 1.0 / (self.clock_hz * self.flops_per_cycle)


@dataclass(frozen=True)
class CacheSpec:
    """Private-cache parameters for the hardware-coherent cost model."""

    line_bytes: int = 64
    cold_miss_time: float = 60e-9
    coherence_miss_time: float = 80e-9
    hit_time: float = 0.0  # folded into element_op_time
    #: Multiplier on coherence misses that cross a socket boundary (FSB/QPI
    #: hop on the dual-socket testbed node). 1.0 disables NUMA modelling.
    cross_socket_factor: float = 1.0


@dataclass(frozen=True)
class NodeSpec:
    """A general-purpose host node (one cache-coherent SMP)."""

    name: str
    cpu: CPUSpec
    sockets: int = 2
    cores_per_socket: int = 4
    dram_bytes: int = 8 << 30
    cache: CacheSpec = field(default_factory=CacheSpec)

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket


@dataclass(frozen=True)
class CoprocessorSpec:
    """A many-core coprocessor attached over PCIe (Xeon Phi-like).

    ``cores`` counts usable compute cores; ``dram_bytes`` is the small
    on-board memory the paper calls out as the reason not to treat the
    coprocessor as a standalone mini-cluster.
    """

    name: str
    cpu: CPUSpec
    cores: int = 60
    dram_bytes: int = 8 << 30
    cache: CacheSpec = field(default_factory=CacheSpec)


# ---------------------------------------------------------------------------
# Catalog entries
# ---------------------------------------------------------------------------

#: 2.8 GHz Intel Xeon (Penryn Harpertown) core -- the paper's testbed CPU.
PENRYN_CPU = CPUSpec(name="penryn-2.8GHz", clock_hz=2.8e9, flops_per_cycle=2.0,
                     element_op_time=1.2e-9)

#: Dual quad-core Penryn node with 8 GB, as in §III of the paper.
PENRYN_NODE = NodeSpec(name="penryn-harpertown", cpu=PENRYN_CPU,
                       sockets=2, cores_per_socket=4, dram_bytes=8 << 30)

#: Xeon Phi "Knights Corner": ~1.1 GHz in-order cores; scalar code runs far
#: slower per-core than a Penryn, which the element_op_time reflects.
_KNC_CPU = CPUSpec(name="knc-1.1GHz", clock_hz=1.1e9, flops_per_cycle=2.0,
                   element_op_time=4.0e-9)
XEON_PHI_KNC = CoprocessorSpec(name="xeon-phi-knc", cpu=_KNC_CPU,
                               cores=60, dram_bytes=8 << 30)
