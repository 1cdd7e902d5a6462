"""Interconnect models: links, fabrics, and the Samhita Communication Layer.

A :class:`LinkModel` prices a single hop (latency + serialization); a
:class:`~repro.interconnect.routing.Fabric` composes hops along topology
paths and optionally serializes contended links through DES resources; and
:class:`~repro.interconnect.scl.SCL` is the RDMA-style get/put interface the
Samhita core talks to -- mirroring the paper's abstraction over InfiniBand
verbs, and its proposed SCIF backend for PCIe.
"""

from repro.interconnect.base import LinkModel
from repro.interconnect.infiniband import ib_qdr
from repro.interconnect.pcie import pcie_gen2_x8, pcie_gen2_x16
from repro.interconnect.routing import Fabric
from repro.interconnect.scif import scif_link, verbs_proxy_link
from repro.interconnect.scl import SCL

__all__ = [
    "Fabric",
    "LinkModel",
    "SCL",
    "ib_qdr",
    "pcie_gen2_x16",
    "pcie_gen2_x8",
    "scif_link",
    "verbs_proxy_link",
]
