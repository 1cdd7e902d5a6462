"""Deterministic discrete-event simulation engine.

This is the substrate every simulated component runs on: compute threads,
memory servers, the manager, and interconnect transfers are all processes
(generator coroutines) scheduled on one virtual clock.

The yield protocol understood by the engine:

* ``yield Timeout(dt)``      -- resume after ``dt`` simulated seconds.
* ``yield event``            -- resume when the :class:`SimEvent` triggers.
* ``yield process``          -- join another process (gets its return value).
* ``yield PARK``             -- suspend with nothing queued: whoever holds the
  process resumes it (``Resource.serve`` does, at service completion).

Operations are consumed with ``yield from``; one that completed without
blocking may hand back ``repro.sim.engine.DONE`` (``()``) instead of a
generator.
"""

from repro.sim.engine import Engine, Process, Timeout
from repro.sim.events import SimEvent
from repro.sim.resources import Resource, SimBarrier, SimMutex
from repro.sim.trace import TraceRecord, Tracer
from repro.sim.stats import StatSet

__all__ = [
    "Engine",
    "Process",
    "Resource",
    "SimBarrier",
    "SimEvent",
    "SimMutex",
    "StatSet",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
