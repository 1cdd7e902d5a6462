"""Per-thread virtual-time accounting.

The paper's evaluation separates "two important components that contribute
to the runtime of an application -- compute time and synchronization time".
Compute time includes page-fault stalls (that is how false sharing shows up
in the compute-time figures); synchronization time covers lock, barrier and
condition-variable operations including their consistency work.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ThreadClock:
    """Accumulated virtual seconds, split the way the paper reports them."""

    compute: float = 0.0
    sync: float = 0.0
    #: Seconds per bucket and per attribution key; a key reads 0.0 until
    #: something is charged to it.
    detail: dict = field(default_factory=lambda: defaultdict(float))

    @property
    def total(self) -> float:
        return self.compute + self.sync

    def charge(self, bucket: str, dt: float, key: str | None = None) -> None:
        """Book ``dt`` to a bucket and, with ``key``, to its extra
        attribution (e.g. 'fault', 'barrier') -- one call per timed
        operation."""
        if dt < 0:
            raise ValueError(f"negative time charge: {dt}")
        if bucket == "compute":
            self.compute += dt
        elif bucket == "sync":
            self.sync += dt
        else:
            raise ValueError(f"unknown clock bucket {bucket!r}")
        detail = self.detail
        detail[bucket] += dt
        if key is not None:
            detail[key] += dt

    def charge_hit_run(self, start: float, dts: np.ndarray,
                       memory: bool) -> float:
        """Charge a stretch of plan operations that all hit: compute
        intervals ``dts`` (seconds, in order) and, if ``memory``, reads and
        writes, which cost no simulated time. Returns ``start`` advanced by
        every interval.

        Each total is the chain ``t = fl(t + dt)`` that one :meth:`charge`
        per operation produces:
        ``np.add.accumulate`` is strictly sequential where ``np.sum`` adds
        pairwise, and a memory hit's ``fl(t + 0.0)`` is ``t``.
        """
        detail = self.detail
        compute = detail["compute"]  # (the read creates the key)
        if memory:
            detail["memory"] += 0.0
        if not dts.size:
            return start
        chains = np.empty((4, dts.size + 1))
        chains[:, 0] = (start, self.compute, compute, detail["cpu"])
        chains[:, 1:] = dts
        (start, self.compute, detail["compute"],
         detail["cpu"]) = np.add.accumulate(chains, axis=1)[:, -1].tolist()
        return start
