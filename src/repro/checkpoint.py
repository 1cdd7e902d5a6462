"""Coordinated crash-consistent checkpoint/restart for a Samhita campaign.

A checkpoint is a *consistent cut* of the whole machine, taken at a
barrier-aligned quiesce point (``SamhitaSystem.barrier_wait``, immediately
after the round's flush gate succeeds): every thread's flushed diffs are
applied at their home servers, so the global pages plus the owners'
lazily-held single-writer copies are exactly the computation's state at the
round boundary. The snapshot is assembled by a plain function call from
inside the DES, so the cut is atomic in simulated time -- no
Chandy-Lamport marker traffic is needed because the simulator IS the
global observer.

What goes into the cut (one :class:`Checkpoint`):

* the engine clock and the barrier-round counter;
* the fencing epoch (armed by a fault plan), so a restore cannot resurrect a
  pre-failover membership view;
* every page's authoritative bytes. The home server's frame is the base;
  when the directory credits a thread with lazily-held (single-writer)
  dirty data, that owner's resident cache copy supersedes the frame --
  a barrier leaves such pages stale at home by design, and skipping them
  would silently roll those writes back;
* the failover indirections (home remap, shard remap) and each live
  server's replication-WAL high-water mark, recorded so a post-restore
  audit can prove the cut consistent with the replication stream;
* lock holders and barrier generations (the control-plane cut).

Restore (:func:`restore_checkpoint`, surfaced as ``Samhita.restore()``)
rehydrates a FRESH system's backing stores from the page map and lets a
continuation program replay the remaining rounds: the deterministic bump
allocator reproduces the original addresses, so the continuation simply
re-mallocs the same shapes and resumes from the checkpointed round. That
turns "last replica of a shard lost" from a fatal
:class:`~repro.errors.ReplicationError` into "restore from the latest
checkpoint and replay".

At ``checkpoint_interval=0`` (the default) no store is constructed and the
barrier hook is one ``is None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Checkpoint:
    """One crash-consistent cut of a running campaign."""

    #: Barrier rounds completed (across all barriers) when the cut was taken.
    round: int
    #: Simulated time of the quiesce point.
    clock: float
    #: Fencing epoch at the cut (0 without a fault plan / never failed over).
    epoch: int
    #: page -> bytes: the authoritative copy of every materialized page
    #: (owner cache copy when the page's diff is lazily held, else the home
    #: frame). ``None`` values mark timing-mode frames (existence only).
    pages: dict = field(default_factory=dict)
    #: page -> logical home-server index, recorded at take time because a
    #: FRESH machine's allocator has no regions yet to recompute it from.
    page_homes: dict = field(default_factory=dict)
    #: Failover indirections at the cut.
    home_remap: dict = field(default_factory=dict)
    shard_remap: dict = field(default_factory=dict)
    #: server index -> replication-WAL next-LSN high-water mark.
    wal_marks: dict = field(default_factory=dict)
    #: lock id -> holder tid (held locks only).
    lock_holders: dict = field(default_factory=dict)
    #: barrier id -> generation counter.
    barrier_generations: dict = field(default_factory=dict)

    @property
    def page_count(self) -> int:
        return len(self.pages)


class CheckpointStore:
    """The retained checkpoints of one system, newest last.

    Mutable on purpose (the config is frozen): it models the durable
    checkpoint volume a real deployment writes to, which survives any
    number of in-memory failures.
    """

    def __init__(self):
        self._checkpoints: list[Checkpoint] = []

    def add(self, ckpt: Checkpoint) -> None:
        self._checkpoints.append(ckpt)

    def latest(self) -> Checkpoint | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def __len__(self) -> int:
        return len(self._checkpoints)


def _authoritative_bytes(system, page: int, backing):
    """The freshest copy of ``page`` at a barrier quiesce point.

    The home frame, unless the directory credits a thread with a
    lazily-held dirty copy -- the single-writer optimization leaves the
    home stale until the next recall, and the owner's resident cache entry
    is the true current bytes.
    """
    owner = system.directory.owner_of(page)
    if owner is not None:
        cache = system._caches.get(owner)
        if cache is not None and cache.is_dirty(page):
            data = cache.peek(page)
            if data is not None:
                return bytes(data)
    data = backing.peek(page)
    return bytes(data) if data is not None else None


def take_checkpoint(system) -> Checkpoint:
    """Assemble one consistent cut of ``system`` (quiesce point assumed)."""
    pages: dict = {}
    page_homes: dict = {}
    directory = system.directory
    allocator = system.allocator
    for server in system.memory_servers:
        if system.is_server_dead(server.index):
            continue
        for page in server.backing.live_pages():
            # Only the page's *resolved* home contributes: a backup's frame
            # is a passive copy that may lag the primary's apply stream.
            home = allocator.home_of_page(page)
            if directory.resolve_home(home) != server.index:
                continue
            pages[page] = _authoritative_bytes(system, page, server.backing)
            page_homes[page] = home
    wal_marks = {server.index: server.wal._next_lsn
                 for server in system.memory_servers
                 if server.wal is not None}
    lock_holders: dict = {}
    barrier_generations: dict = {}
    for mgr in system.control.live_managers():
        for lock_id, state in mgr._locks.items():
            if state.holder is not None:
                lock_holders[lock_id] = state.holder
        for barrier_id, state in mgr._barriers.items():
            barrier_generations[barrier_id] = state.generation
    return Checkpoint(
        round=system._ckpt_rounds,
        clock=system.engine.now,
        epoch=system.membership.epoch if system.membership is not None else 0,
        pages=pages,
        page_homes=page_homes,
        home_remap=directory.home_remap,
        shard_remap=system.control.shard_remap,
        wal_marks=wal_marks,
        lock_holders=lock_holders,
        barrier_generations=barrier_generations,
    )


def restore_checkpoint(system, ckpt: Checkpoint) -> None:
    """Rehydrate a FRESH system's global memory from ``ckpt``.

    Pages land at their *logical* homes (the restored machine has no
    failovers yet); the continuation program then re-mallocs the same
    shapes -- the deterministic bump allocator reproduces the original
    addresses -- and replays rounds ``ckpt.round``..end. Lock holders and
    barrier generations are not rehydrated: a quiesce-point cut holds no
    mid-protocol state worth resurrecting, the continuation re-creates its
    synchronization objects.
    """
    import numpy as np

    for page in sorted(ckpt.pages):
        data = ckpt.pages[page]
        server = system.memory_servers[ckpt.page_homes[page]]
        if data is None:
            server.backing.ensure(page)
            continue
        server.backing.write_page(
            page, np.frombuffer(data, dtype=np.uint8).copy())
    if system.membership is not None and ckpt.epoch:
        # The restored machine must not accept traffic stamped with an
        # epoch the lost machine had already fenced off.
        while system.membership.epoch < ckpt.epoch:
            system.membership.bump()
