"""Fault tolerance for a Samhita machine, attached by composition.

PAPER.md §II's Samhita has no fault tolerance. What lets a run survive a
fault plan lives here, and a system gets it (``SamhitaSystem.resilience``)
only where something can fail over: ``replication_factor > 1``, or a fault
plan on ``manager_shards > 1``; otherwise nothing here is imported. The
package owns replication and its write-ahead log (:mod:`.wal`) and the
failure detector (:mod:`.detector`). The core calls :class:`Resilience` at
two hooks, each one ``is None`` check on the paper's build:

1. when a server merges diffs: :meth:`~Resilience.check_alive` (in its
   slot), :meth:`~Resilience.log` (in the merge's atomic step) and
   :meth:`~Resilience.ship` (once its slot is free);
2. on a detector declaration: :meth:`~Resilience.handle_server_failure`
   (a shard's failover stays ``ControlPlane.handle_shard_failure``).
"""

from __future__ import annotations

from itertools import repeat

from repro.errors import ReplicationError, RetryExhaustedError
from repro.resilience.detector import (
    HEARTBEAT_INTERVAL,
    HEARTBEAT_MISSES,
    FailureDetector,
)
from repro.resilience.wal import ReplicationLog
from repro.sim.engine import Timeout
from repro.sim.resources import Resource
from repro.sim.stats import StatSet

__all__ = ["Resilience"]


class Resilience:
    """The fault-tolerance layer of one :class:`~repro.core.system.SamhitaSystem`."""

    def __init__(self, system):
        config = system.config
        servers = system.memory_servers
        self.system = system
        #: Memory server indices declared dead.
        self.dead_servers: set[int] = set()
        #: One write-ahead log per memory server and the lock serializing
        #: its shipping (``replication_factor > 1``).
        self.wals: list[ReplicationLog] | None = None
        self._ship_locks: list[Resource] | None = None
        if config.replication_factor > 1:
            self.wals = [ReplicationLog(s.index) for s in servers]
            self._ship_locks = [Resource(system.engine, capacity=1,
                                         name=f"repl{s.index}")
                                for s in servers]
        self.detector: FailureDetector | None = None
        if system.injector is not None:
            # Failure detection only makes sense with a fault model to
            # observe; a fault-free replicated run just pays the copies.
            self.detector = FailureDetector(self)
            system.injector.detector = self.detector

    def detach(self) -> None:
        """Cut every edge to the system (a disposed run dies by refcount)."""
        system = self.system
        system.resilience = None
        if system.injector is not None:
            system.injector.detector = None
        self.detector = self.system = None

    # ------------------------------------------------------------------
    # replica ring
    # ------------------------------------------------------------------
    def replica_ring(self, logical: int) -> list[int]:
        """Server indices holding copies of pages logically homed on
        ``logical``: the primary plus the next ``replication_factor - 1``
        servers in index order (the same hashing that spreads homes)."""
        n = len(self.system.memory_servers)
        return [(logical + i) % n
                for i in range(self.system.config.replication_factor)]

    def replica_targets(self, page: int, exclude: int) -> list[int]:
        """Live backup indices for ``page``, excluding ``exclude`` (the
        server asking -- it never ships to itself)."""
        logical = self.system.allocator.home_of_page(page)
        dead = self.dead_servers
        return [i for i in self.replica_ring(logical)
                if i != exclude and i not in dead]

    def replica_targets_each(self, diffs, exclude: int):
        """:meth:`replica_targets` of each diff's page, in order (what
        ``ReplicationLog.extend`` logs a batch with). A batch is what one
        server merges at once: until a server has died every page it is
        home to has its own ring, resolved once; a promoted server also
        holds its dead neighbour's pages, so its batches resolve per diff."""
        if self.dead_servers:
            return [self.replica_targets(diff.page, exclude) for diff in diffs]
        return repeat(self.replica_targets(diffs[0].page, exclude))

    # ------------------------------------------------------------------
    # hook 1: when a server merges diffs
    # ------------------------------------------------------------------
    def log(self, server, diffs) -> None:
        """Write-ahead: log the diffs ``server`` merges, in the merge's
        atomic step (a recall, which took the *only* dirty copy, logs
        before its transfer), for each page's currently-live backups (dead
        ones would pin entries forever)."""
        if self.wals is not None:
            self.wals[server.index].extend(
                diffs, self.replica_targets_each(diffs, server.index))

    def ship(self, server):
        """Generator: ship ``server``'s unacknowledged WAL tail to each live
        backup and collect acks -- after the merge released the server's
        own slot (a ship holds the BACKUP's: holding both would AB-BA),
        before the merge's sender goes on, so a release completes only
        once every live backup acked.

        Serialized per server so two flushes cannot ship the same entries
        twice. Acks follow the backup's apply (ack-after-delivery), so a
        primary dying mid-ship loses nothing; a ship that exhausts its
        retries leaves its entries pending for the failover to replay or
        prune.
        """
        if self.wals is None:
            return
        wal = self.wals[server.index]
        if not wal.entries:
            return
        system = self.system
        counters = server.stats.counters
        lock = self._ship_locks[server.index]
        yield from lock.request()
        try:
            targets = sorted({t for e in wal.entries for t in e.pending})
            for target in targets:
                if target in self.dead_servers:
                    wal.drop_target(target)
                    counters["repl_dead_targets"] += 1
                    continue
                entries = wal.unshipped(target)
                if not entries:
                    continue
                backup = system.memory_servers[target]
                diffs = [e.diff for e in entries]
                wire = sum([d.wire_bytes for d in diffs])
                try:
                    t = system.scl.rdma_put(server.component, backup.component,
                                            wire, category="repl")
                    if t is not None:
                        yield from t
                    # The backup side: a passive byte copy until promoted
                    # (no directory write, no WAL append).
                    total = yield from backup.merge(diffs)
                    backup.stats.incr("replica_applies")
                    backup.stats.incr("replica_bytes", total)
                    t = system.scl.send(backup.component, server.component,
                                        category="repl_ack")
                    if t is not None:
                        yield from t
                except RetryExhaustedError:
                    counters["repl_ship_failed"] += 1
                    continue
                wal.ack(target, entries)
                counters["repl_ships"] += 1
                counters["repl_diffs"] += len(diffs)
                counters["repl_bytes"] += total
        finally:
            lock.release()

    def check_alive(self, server) -> None:
        """A merge reached ``server``'s slot: a dead server processes
        nothing, so the request is lost and the caller fails over (applying
        would strand the diffs on a corpse whose WAL nobody replays)."""
        if server.index in self.dead_servers:
            raise RetryExhaustedError(server.component, server.component,
                                      "diff", 0, self.system.engine.now)

    # ------------------------------------------------------------------
    # hook 2: failover
    # ------------------------------------------------------------------
    def handle_server_failure(self, dead: int) -> None:
        """Failover: promote the dead primary's backup -- a plain call from
        the detector's probe callback, atomic in simulated time. The dead
        server's WAL survives it: it models a durable (disk/NVRAM) log."""
        if dead in self.dead_servers:
            return
        self.dead_servers.add(dead)
        system = self.system
        ring = self.replica_ring(dead)
        promoted = next(
            (i for i in ring[1:] if i not in self.dead_servers), None)
        if promoted is None:
            raise ReplicationError(
                f"server {dead} failed with no live replica to promote "
                f"(ring {ring})")
        wals = self.wals
        if wals is not None:
            wal = wals[dead]
            # The promoted backup holds the acked prefix; the unacked
            # tail makes it byte-equal to the dead primary.
            replay = wal.unshipped(promoted)
            backing = system.memory_servers[promoted].backing
            for entry in replay:
                backing.apply_diff(entry.diff)
            if replay:
                wal.ack(promoted, replay)
                system.stats.incr("wal_replayed", len(replay))
            # Entries owed to OTHER replicas move to the promoted log.
            inherited = 0
            for entry in wal.entries:
                pending = [t for t in entry.pending
                           if t != dead and t not in self.dead_servers]
                if pending:
                    wals[promoted].append(entry.page, entry.diff, pending)
                    inherited += 1
            if inherited:
                system.stats.incr("wal_inherited", inherited)
            wal.clear()
            # Nobody ships to a corpse: prune the dead target everywhere.
            for index, other in enumerate(wals):
                if index != dead:
                    other.drop_target(dead)
        system.directory.remap_home(dead, promoted)
        system.stats.incr("failovers")

    def await_failover(self, index: int, err):
        """Generator: a request against server ``index`` exhausted its
        retries: :meth:`failover_wait` for the server's failover."""
        return self.failover_wait(self.dead_servers, index, self.system.stats,
                                  "failover_retries", err)

    def failover_wait(self, dead: set[int], index: int, stats: StatSet,
                      key: str, err):
        """Generator shared by :meth:`await_failover` and
        ``ControlPlane.await_shard_failover``: wait for the failover, then
        return so the caller re-resolves and retries; else raise ``err``
        (at once without a detector).

        Polls ``index in dead`` once a beat for the declaration budget plus
        two beats, counting ``key`` in ``stats`` when the failover landed."""
        if self.detector is None:
            raise err
        for _ in range(HEARTBEAT_MISSES + 2):
            if index in dead:
                stats.incr(key)
                return
            yield Timeout(HEARTBEAT_INTERVAL)
        raise err

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, report: dict) -> None:
        """Add the ``replication`` namespace to a ``stats_report``, each
        counter read from the StatSet counting it."""
        if self.wals is None:
            return
        system = self.system
        # The availability machinery: WAL traffic and failover.
        repl = {k: v for k, v in report["memory_servers"].items()
                if k.startswith(("repl_", "replica_"))}
        wal_stats = StatSet("wal")
        for wal in self.wals:
            wal_stats.merge(wal.stats)
        repl.update(wal_stats.snapshot())
        repl.update({k: v for k, v in system.stats.snapshot().items()
                     if k.startswith(("failover", "wal_"))})
        remaps = system.directory.stats.snapshot().get("home_remaps")
        if remaps:
            repl["home_remaps"] = remaps
        if self.detector is not None:
            repl.update(self.detector.stats.snapshot())
        report["replication"] = repl
