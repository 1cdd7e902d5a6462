"""Fencing-epoch membership view for the partition-tolerant control plane.

One :class:`Membership` instance per system (constructed only when a fault
plan is armed -- without one nothing can fail over) mints the cluster's
monotonically increasing **fencing epoch**, bumped on every failover
(memory-server promotion or manager-shard remap). Write-side RPCs -- diffs,
WAL shipments, lock grants -- are stamped with the sender's last known
epoch, and receivers reject anything older than the epoch they observed at
their own promotion. A partitioned old primary that missed a failover
therefore cannot launder writes after its backup took over: its first
post-partition write is fenced (:class:`~repro.errors.StaleEpochError`), it
refreshes its view, and it re-issues against the current primary.

The fence itself lives on the receivers (``MemoryServer.fence_epoch``,
``Manager.fence_epoch``); this class only mints epochs and counts what the
fences did. The epoch is Lamport-style bookkeeping, not wall time: bumps
happen at the single simulated instant a failover commits.
"""

from __future__ import annotations

from repro.sim.stats import StatSet


class Membership:
    """Monotone fencing epochs and the fence counters."""

    def __init__(self):
        #: Current cluster epoch; 0 until the first promotion.
        self.epoch = 0
        self.stats = StatSet("membership")

    def bump(self) -> int:
        """Mint the next epoch (one per committed failover)."""
        self.epoch += 1
        return self.epoch

    def promote(self) -> int:
        """Mint the epoch of one promotion; everything stamped older is
        stale at the promoted receiver from this instant on."""
        self.stats.counters["promotions"] += 1
        return self.bump()

    def fenced(self) -> None:
        """Record one stale-epoch rejection made by a receiver's fence."""
        self.stats.counters["stale_writes_fenced"] += 1

    def snapshot(self) -> dict:
        out = self.stats.snapshot()
        out["epoch"] = self.epoch
        return out
