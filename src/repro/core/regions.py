"""Region tracking: the store-instrumentation half of Regional Consistency.

RegC "explicitly distinguishes between modifications (stores) to memory
protected by synchronization primitives and those that are not". The
original system finds consistency-region stores with an LLVM static-analysis
pass; here the runtime knows region boundaries exactly -- lock acquisition
enters a consistency region, release leaves it, and
:class:`RegionTracker` answers "is this store instrumented?" with a nesting
counter. ``region()`` also lets applications mark explicit regions, the
analogue of the pass recognizing a lexical critical section.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import ConsistencyError
from repro.sim.stats import StatSet


class RegionTracker:
    """Nesting-aware consistency-region state for one thread."""

    def __init__(self, name: str = "regions"):
        self._depth = 0
        self.stats = StatSet(name)
        self._counters = self.stats.counters

    @property
    def in_consistency_region(self) -> bool:
        return self._depth > 0

    @property
    def depth(self) -> int:
        return self._depth

    def enter(self) -> None:
        self._depth += 1
        self._counters["region_entries"] += 1

    def leave(self) -> None:
        if self._depth == 0:
            raise ConsistencyError("leaving a consistency region that was never entered")
        self._depth -= 1

    @contextmanager
    def region(self):
        """Explicitly scoped consistency region (rarely needed by apps --
        lock/unlock manage this automatically)."""
        self.enter()
        try:
            yield self
        finally:
            self.leave()

    def classify_store(self, nbytes: int) -> bool:
        """Record one store; True if it belongs to a consistency region."""
        counters = self._counters
        if self._depth > 0:
            counters["cr_stores"] += 1
            counters["cr_store_bytes"] += nbytes
            return True
        counters["ordinary_stores"] += 1
        counters["ordinary_store_bytes"] += nbytes
        return False

    def ordinary_stores(self, count: int, nbytes: int) -> None:
        """Record ``count`` ordinary-region stores of ``nbytes`` in total:
        what :meth:`classify_store` records for each store of a plan's hit
        run, which never executes inside a consistency region."""
        if self._depth > 0:
            raise ConsistencyError("bulk stores inside a consistency region")
        if count:
            counters = self._counters
            counters["ordinary_stores"] += count
            counters["ordinary_store_bytes"] += nbytes
