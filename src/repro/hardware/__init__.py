"""Hardware models: machine catalog, compute cost model, the hardware-coherent
cache used by the Pthreads baseline, and topology builders.

Nothing here runs real code on real hardware: these are calibrated analytic
models of the machines in the paper's testbed (dual quad-core Penryn
Harpertown nodes) and of its target platform (Intel Xeon Phi "Knights
Corner" coprocessors in a host node).
"""

from repro.hardware.specs import (
    CPUSpec,
    CoprocessorSpec,
    NodeSpec,
    PENRYN_CPU,
    PENRYN_NODE,
    XEON_PHI_KNC,
)
from repro.hardware.cpu import ComputeCostModel
from repro.hardware.coherent_cache import CoherentCacheModel
from repro.hardware.node import Component, ComponentKind
from repro.hardware.topology import Topology, cluster_topology, hetero_node_topology, smp_topology

__all__ = [
    "CPUSpec",
    "CoherentCacheModel",
    "Component",
    "ComponentKind",
    "ComputeCostModel",
    "CoprocessorSpec",
    "NodeSpec",
    "PENRYN_CPU",
    "PENRYN_NODE",
    "Topology",
    "XEON_PHI_KNC",
    "cluster_topology",
    "hetero_node_topology",
    "smp_topology",
]
