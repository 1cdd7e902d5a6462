"""Regional Consistency: barrier planning and lock update logs.

RegC distinguishes two propagation mechanisms:

* **Ordinary regions** -- stores propagate at *page granularity* at global
  synchronization points. At a barrier each thread submits write notices
  (its dirty pages); the manager plans, for every thread, which pages to
  *flush* (pages with multiple concurrent writers merge eagerly via diffs at
  their home) and which cached copies to *invalidate* (anything another
  thread wrote). Pages dirtied by exactly one thread are NOT flushed --
  the directory records that thread as owner and the home lazily recalls the
  diff only if somebody faults on the page. This is how Samhita's
  synchronization "moves only the minimum amount of data required".

* **Consistency regions** -- instrumented stores propagate as fine-grained
  updates at lock release; the per-lock :class:`LockUpdateLog` versions them
  so each acquirer receives exactly the updates it has not yet seen.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping

from repro.memory.diff import PageDiff
from repro.memory.directory import PageDirectory

#: Default column for ``dict.get`` when mapped over a thread population
#: (keeps the prune horizon scan in C).
_ZEROS = repeat(0)


@dataclass
class BarrierPlan:
    """The manager's directives for one barrier generation."""

    #: Per-thread pages whose cached copies must be dropped. Kept as sets:
    #: consumers only intersect them with (much smaller) residency and
    #: in-flight structures and take their length for message sizing, so
    #: sorting thousands of mostly-non-resident page ids per thread per
    #: barrier would be pure waste.
    invalidate: dict[int, set[int]]
    #: Per-thread dirty pages that must be diff-flushed to their homes now.
    flush: dict[int, list[int]]
    #: Pages written by more than one thread this epoch (diagnostics).
    multi_writer_pages: set[int]
    #: Total pages noticed (sizes the directive messages).
    total_notices: int


def plan_barrier(notices: Mapping[int, Iterable[int]],
                 directory: PageDirectory) -> BarrierPlan:
    """Aggregate write notices into flush/invalidate directives.

    Updates ``directory`` ownership as a side effect: single-writer pages
    become owned by their writer; multi-writer pages lose any owner because
    the eager merge makes the home authoritative again.
    """
    notice_sets = {tid: set(pages) for tid, pages in notices.items()}
    # Multi-writer detection via a page -> writer-count histogram: C-level
    # set/Counter operations replace the per-(page, tid) Python loop.
    counts: Counter = Counter()
    for pages in notice_sets.values():
        counts.update(pages)
    multi = {page for page, n in counts.items() if n > 1}
    for page in multi:
        directory.clear_owner(page)
    for tid, mine in notice_sets.items():
        directory.record_owners(mine - multi, tid)

    all_pages = set(counts)
    invalidate: dict[int, set[int]] = {}
    flush: dict[int, list[int]] = {}
    for tid, mine in notice_sets.items():
        mine_multi = mine & multi
        invalidate[tid] = (all_pages - mine) | mine_multi
        flush[tid] = sorted(mine_multi)
    total = sum(len(p) for p in notice_sets.values())
    return BarrierPlan(invalidate=invalidate, flush=flush,
                       multi_writer_pages=multi, total_notices=total)


@dataclass
class _LogEpoch:
    version: int
    diffs: list[PageDiff]
    payload_bytes: int
    span_count: int
    invalidate_pages: tuple[int, ...]


class LockUpdateLog:
    """Versioned updates associated with one lock.

    Every release appends an epoch; every acquire fetches the epochs the
    acquiring thread has not seen yet. With RegC fine-grain updates the
    epoch carries store-level diffs; in the page-grain ablation it carries
    the pages the acquirer must invalidate instead.
    """

    def __init__(self):
        self._epochs: list[_LogEpoch] = []
        self._version = 0
        self.last_seen: dict[int, int] = {}

    @property
    def version(self) -> int:
        return self._version

    def append(self, diffs: list[PageDiff], invalidate_pages=()) -> int:
        """Record one release's updates; returns the new version."""
        self._version += 1
        payload = sum(d.payload_bytes for d in diffs)
        spans = sum(d.n_spans for d in diffs)
        self._epochs.append(_LogEpoch(self._version, list(diffs), payload,
                                      spans, tuple(invalidate_pages)))
        return self._version

    def updates_since(self, tid: int) -> tuple[list[PageDiff], int, int, list[int]]:
        """Updates the thread has not seen.

        Returns ``(diffs, payload_bytes, spans, invalidate_pages)`` and
        marks the thread up to date.
        """
        seen = self.last_seen.get(tid, 0)
        if seen >= self._version or not self._epochs:
            # Nothing outstanding (the overwhelmingly common case on the
            # coherence broadcast path, which walks every lock per barrier
            # arrival): skip the five comprehensions. Marking the thread up
            # to date still matters when old epochs were pruned away.
            self.last_seen[tid] = self._version
            return [], 0, 0, []
        pending = [e for e in self._epochs if e.version > seen]
        self.last_seen[tid] = self._version
        diffs = [d for e in pending for d in e.diffs]
        payload = sum(e.payload_bytes for e in pending)
        spans = sum(e.span_count for e in pending)
        invalidate = sorted({p for e in pending for p in e.invalidate_pages})
        return diffs, payload, spans, invalidate

    def prune(self, all_tids: Iterable[int]) -> None:
        """Drop epochs every known thread has consumed.

        Must be given the *complete* thread population -- a thread that has
        never acquired this lock still needs the full history on its first
        acquire, so pruning on ``last_seen`` alone would lose updates.
        """
        epochs = self._epochs
        if not epochs:
            return
        tids = list(all_tids)
        if not tids:
            return
        get = self.last_seen.get
        horizon = min(map(get, tids, _ZEROS))
        if horizon < epochs[0].version:
            # Oldest retained epoch is still unconsumed by someone: the
            # rebuild below would be an identity copy.
            return
        self._epochs = [e for e in epochs if e.version > horizon]

    def __len__(self) -> int:
        return len(self._epochs)
