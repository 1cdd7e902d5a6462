"""Coordinated crash-consistent checkpoint/restart for a Samhita campaign.

A checkpoint is a *consistent cut*, taken at the barrier's quiesce point
(just after a round's flush gate succeeds, every flushed diff applied at
its home) by one plain call inside the DES -- the simulator is the global
observer, so no Chandy-Lamport marker traffic is needed. It holds what a
restore reads: the round count, the fencing epoch, and every page's
authoritative bytes with its logical home (a thread's lazily-held
single-writer dirty copy supersedes the home frame, which a barrier
leaves stale by design).

:func:`restore_checkpoint` (``Samhita.restore()``) rehydrates a FRESH
system's backing stores; the continuation program re-mallocs the same
shapes (the deterministic bump allocator reproduces the addresses) and
replays the remaining rounds -- which turns "last replica of a ring lost"
from a fatal :class:`~repro.errors.ReplicationError` into "restore and
replay".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Checkpoint:
    """One crash-consistent cut of a running campaign."""

    #: Barrier rounds completed (across all barriers) when the cut was taken.
    round: int
    #: Fencing epoch at the cut (0 without a fault plan / never failed over).
    epoch: int
    #: page -> bytes: the authoritative copy of every materialized page
    #: (owner cache copy when the page's diff is lazily held, else the home
    #: frame). ``None`` values mark timing-mode frames (existence only).
    pages: dict = field(default_factory=dict)
    #: page -> logical home-server index, recorded at take time because a
    #: FRESH machine's allocator has no regions yet to recompute it from.
    page_homes: dict = field(default_factory=dict)

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
    """The freshest copy of ``page`` at a quiesce point: the home frame,
    unless the directory credits a thread with a lazily-held dirty copy
    (the home stays stale until the next recall)."""
    owner = system.directory.owner_of(page)
    if owner is not None:
        cache = system._caches.get(owner)
        if cache is not None and cache.is_dirty(page):
            data = cache.peek(page)
            if data is not None:
                return bytes(data)
    data = backing.peek(page)
    return bytes(data) if data is not None else None


def take_checkpoint(resilience, rounds: int) -> Checkpoint:
    """Assemble one consistent cut of the machine ``resilience`` is
    attached to, after ``rounds`` barrier rounds (quiesce point assumed)."""
    system = resilience.system
    pages: dict = {}
    page_homes: dict = {}
    directory = system.directory
    allocator = system.allocator
    for server in system.memory_servers:
        if server.index in resilience.dead_servers:
            continue
        for page in server.backing.live_pages():
            # Only the page's *resolved* home contributes: a backup's frame
            # is a passive copy that may lag the primary's apply stream.
            home = allocator.home_of_page(page)
            if directory.resolve_home(home) != server.index:
                continue
            pages[page] = _authoritative_bytes(system, page, server.backing)
            page_homes[page] = home
    membership = resilience.membership
    return Checkpoint(round=rounds,
                      epoch=membership.epoch if membership is not None else 0,
                      pages=pages, page_homes=page_homes)


def restore_checkpoint(system, ckpt: Checkpoint) -> None:
    """Rehydrate a FRESH system's global memory from ``ckpt``, each page
    at its *logical* home (the restored machine has no failovers yet). No
    synchronization state is rehydrated: a quiesce-point cut holds none
    worth resurrecting, and the continuation re-creates its objects."""
    for page in sorted(ckpt.pages):
        data = ckpt.pages[page]
        server = system.memory_servers[ckpt.page_homes[page]]
        if data is None:
            server.backing.ensure(page)
            continue
        server.backing.write_page(
            page, np.frombuffer(data, dtype=np.uint8).copy())
    resilience = system.resilience
    membership = resilience.membership if resilience is not None else None
    if membership is not None and ckpt.epoch:
        # The restored machine must not accept traffic stamped with an
        # epoch the lost machine had already fenced off.
        while membership.epoch < ckpt.epoch:
            membership.bump()
    system.stats.incr("checkpoints_restored")
