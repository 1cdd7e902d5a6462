"""The write-ahead replication log each primary keeps
(``replication_factor > 1``): every diff merged at a home is appended with
the backup servers that still owe an ack; shipping acks prune the log, and
on primary failure the unacknowledged tail is replayed into the promoted
backup.
"""

from __future__ import annotations

from repro.memory.diff import PageDiff
from repro.sim.stats import StatSet


class ReplEntry:
    """One WAL record: a page diff plus the backups that still owe an ack."""

    __slots__ = ("lsn", "page", "diff", "pending")

    def __init__(self, lsn: int, page: int, diff: PageDiff, pending):
        self.lsn = lsn
        self.page = page
        self.diff = diff
        #: Backup server indices that have not acknowledged this entry yet.
        #: Per-entry sets (not per-target high-water marks) because after a
        #: failover a promoted server's log mixes pages whose replica rings
        #: differ, so one LSN watermark per target would under-replicate.
        self.pending: set[int] = set(pending)


class ReplicationLog:
    """Per-primary write-ahead replication log.

    Append *before* the primary applies (write-ahead): a diff that was
    taken from its writer (an owner recall pulls the only dirty copy) must
    survive the primary dying mid-merge, and the durable log is the only
    place it still exists. Entries are appended in the primary's apply
    order -- the server resource serializes every apply path -- so backups
    that apply in LSN order converge to the primary's exact bytes.
    """

    def __init__(self, index: int):
        self.index = index
        self.entries: list[ReplEntry] = []
        self._next_lsn = 0
        self.stats = StatSet(f"wal{index}")

    def extend(self, diffs, targets) -> ReplEntry | None:
        """Log a batch in order: each diff with its own ``targets`` item
        (the backup server indices that must acknowledge it; the two run
        in parallel). A diff no live backup wants is not logged -- with
        every backup dead there is nobody left to replay to. Returns the
        last entry logged, if any."""
        entries = self.entries
        first = lsn = self._next_lsn
        entry = None
        for diff, pending in zip(diffs, targets):
            if pending:
                entry = ReplEntry(lsn, diff.page, diff, pending)
                entries.append(entry)
                lsn += 1
        if entry is not None:
            self._next_lsn = lsn
            self.stats.counters["wal_appends"] += lsn - first
        return entry

    def append(self, page: int, diff: PageDiff, targets) -> ReplEntry | None:
        """Log one diff (of ``page``) bound for ``targets``: :meth:`extend`
        of one. None when no live backup wants it."""
        return self.extend((diff,), (tuple(targets),))

    def unshipped(self, target: int) -> list[ReplEntry]:
        """Entries ``target`` has not acknowledged, in LSN order."""
        return [e for e in self.entries if target in e.pending]

    def ack(self, target: int, entries) -> None:
        """Record ``target``'s acknowledgement of ``entries`` and prune the
        fully-acked head."""
        for entry in entries:
            entry.pending.discard(target)
        self._prune()

    def drop_target(self, target: int) -> None:
        """Forget a dead backup: entries pending only for it are pruned."""
        for entry in self.entries:
            entry.pending.discard(target)
        self._prune()

    def _prune(self) -> None:
        before = len(self.entries)
        if before:
            self.entries = [e for e in self.entries if e.pending]
            pruned = before - len(self.entries)
            if pruned:
                self.stats.counters["wal_pruned"] += pruned

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)
