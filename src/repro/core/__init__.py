"""Samhita core: the paper's primary contribution.

This package wires the memory substrate, the interconnect and the simulation
engine into the system of Figure 1: a *manager* (allocation, synchronization,
thread placement), one or more *memory servers* (page homes), and *compute
servers* hosting the application threads, all speaking SCL.

The Regional Consistency model is implemented across
:mod:`repro.core.regions` (region tracking / store instrumentation),
:mod:`repro.core.consistency` (barrier planning, write notices, ownership)
and the synchronization paths in :mod:`repro.core.manager`.
"""

from repro.core.params import SamhitaConfig
from repro.core.placement import PlacementPolicy
from repro.core.system import SamhitaSystem

__all__ = ["PlacementPolicy", "SamhitaConfig", "SamhitaSystem"]
