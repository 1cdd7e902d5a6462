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

The class keeps each receiver's fence and each sender's view next to the
epoch, which bumps at the simulated instant a failover commits.
"""

from __future__ import annotations

from repro.sim.stats import StatSet


class Membership:
    """Monotone fencing epochs, the fences and the senders' views."""

    def __init__(self, n_servers: int):
        #: Current cluster epoch; 0 until the first promotion.
        self.epoch = 0
        self.stats = StatSet("membership")
        #: Memory server index -> the minimum epoch it accepts on write-side
        #: RPCs, set to the epoch its promotion minted (0: never promoted).
        self.server_fence = [0] * n_servers
        #: Manager shard -> the epoch it fences control RPCs at, for the
        #: shards that inherited a dead peer's state in a failover.
        self.shard_fence: dict = {}
        #: Memory server index -> last epoch it observed, stamped on its
        #: own outbound WAL shipments.
        self.server_views = [0] * n_servers
        #: Compute component -> last epoch it observed on the data plane,
        #: stamped on its diffs and refreshed when a receiver fences it.
        self.views: dict[str, int] = {}
        #: Sender component -> last epoch it observed on the control plane.
        self.control_views: dict[str, int] = {}

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

    def stale_control(self, mgr, comp: str) -> bool:
        """A control RPC from ``comp`` to the promoted shard ``mgr``: True
        (and counted, and ``comp``'s view refreshed) when ``comp`` has not
        seen the epoch ``mgr`` fences at."""
        if self.control_views.get(comp, 0) >= self.shard_fence[mgr]:
            return False
        self.fenced()
        self.control_views[comp] = self.epoch
        return True

    def snapshot(self) -> dict:
        out = self.stats.snapshot()
        out["epoch"] = self.epoch
        return out
