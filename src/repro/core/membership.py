"""Fencing-epoch membership view for the partition-tolerant control plane.

One :class:`Membership` instance per system (constructed only when
``config.fencing`` is on) holds the cluster's single source of truth about
*who may write where*:

* a monotonically increasing **fencing epoch**, bumped on every failover
  (memory-server promotion or manager-shard remap).  Write-side RPCs --
  diffs, WAL shipments, lock grants -- are stamped with the sender's last
  known epoch, and receivers reject anything older than the epoch they
  observed at their own promotion.  A partitioned old primary that missed a
  failover therefore cannot launder writes after its backup took over: its
  first post-partition write is fenced (:class:`~repro.errors.StaleEpochError`),
  it refreshes its view, and it re-issues against the current primary.
* a **primary table** mapping a fencing key (a page-home index or manager
  shard) to ``(owner, epoch-at-promotion)``.  :meth:`validate` is the pure
  acceptance rule the property tests exercise directly: a write is valid
  iff it names the current owner and carries an epoch at least as new as
  that owner's promotion.

The epoch is Lamport-style bookkeeping, not wall time: bumps happen at the
single simulated instant a failover commits, so "exactly one epoch-valid
primary per key" is an invariant, not a race.
"""

from __future__ import annotations

from repro.sim.stats import StatSet


class Membership:
    """Monotone fencing epochs + the per-key primary table."""

    def __init__(self):
        #: Current cluster epoch; 0 until the first promotion.
        self.epoch = 0
        self.stats = StatSet("membership")
        #: ``key -> (owner, fence_epoch)``: the epoch recorded is the one
        #: minted by the promotion that installed ``owner``.
        self.primaries: dict = {}

    # ------------------------------------------------------------------
    # promotions
    # ------------------------------------------------------------------
    def bump(self) -> int:
        """Mint the next epoch (one per committed failover)."""
        self.epoch += 1
        return self.epoch

    def promote(self, key, owner) -> int:
        """Install ``owner`` as the primary for ``key`` under a fresh epoch.

        Returns the minted epoch; everything stamped with an older epoch is
        stale for this key from this instant on.
        """
        epoch = self.bump()
        self.primaries[key] = (owner, epoch)
        self.stats.counters["promotions"] += 1
        return epoch

    def primary_of(self, key, default=None):
        entry = self.primaries.get(key)
        return entry[0] if entry is not None else default

    def fence_epoch_of(self, key) -> int:
        """The minimum epoch ``key``'s primary accepts (0 = never failed
        over: every epoch is acceptable)."""
        entry = self.primaries.get(key)
        return entry[1] if entry is not None else 0

    # ------------------------------------------------------------------
    # write-side acceptance
    # ------------------------------------------------------------------
    def validate(self, key, owner, epoch: int) -> bool:
        """Would a write stamped ``(owner, epoch)`` be accepted for ``key``?

        The single acceptance rule: ``owner`` must be the current primary
        and ``epoch`` must be no older than the promotion that installed
        it. Counts a rejection as one fenced stale write.
        """
        entry = self.primaries.get(key)
        if entry is None:
            return True  # never failed over: the initial owner stands
        current, fence = entry
        if owner != current or epoch < fence:
            self.stats.counters["stale_writes_fenced"] += 1
            return False
        return True

    def fenced(self) -> None:
        """Record one stale-epoch rejection made by a receiver that keeps
        its own fence (the in-protocol path, vs :meth:`validate`)."""
        self.stats.counters["stale_writes_fenced"] += 1

    def quorum_denied(self) -> None:
        self.stats.counters["quorum_denials"] += 1

    def snapshot(self) -> dict:
        out = self.stats.snapshot()
        out["epoch"] = self.epoch
        return out
