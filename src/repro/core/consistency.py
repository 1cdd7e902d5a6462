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

from dataclasses import dataclass, field
from itertools import repeat
from typing import Collection, Iterable, Mapping

import numpy as np

from repro.core import protocol
from repro.memory.diff import PageDiff
from repro.memory.directory import PageDirectory
from repro.memory.pagetable import NO_PAGES

#: Default column for ``dict.get`` when mapped over a thread population
#: (keeps the prune horizon scan in C).
_ZEROS = repeat(0)


@dataclass
class BarrierPlan:
    """The manager's directives for one barrier generation.

    Page-id collections are ascending ``int64`` vectors shared by every
    thread's directive; nothing here grows with threads x pages.
    """

    #: Every page noticed this round.
    pages: np.ndarray
    #: The pages of ``pages`` written by more than one thread.
    multi: np.ndarray
    #: Each thread's own notices that nobody else wrote: pages it now owns
    #: and keeps.
    kept: dict[int, np.ndarray]
    #: Per-thread dirty pages that must be diff-flushed to their homes now
    #: (the thread's other notices: its multi-writer pages).
    flush: dict[int, list[int]]
    #: Total pages noticed (sizes the directive messages).
    total_notices: int
    _members: frozenset | None = field(default=None, repr=False)

    def members(self) -> frozenset:
        """``pages`` as a set, built when the first directive is resolved
        and shared by the round's threads."""
        if self._members is None:
            self._members = frozenset(self.pages.tolist())
        return self._members

    def directive(self, tid: int) -> "InvalidateDirective":
        return InvalidateDirective(self, self.kept[tid])

    @property
    def invalidate(self) -> dict[int, "InvalidateDirective"]:
        """Every thread's invalidate directive (diagnostics and tests)."""
        return {tid: self.directive(tid) for tid in self.kept}

    @property
    def multi_writer_pages(self) -> set[int]:
        return set(self.multi.tolist())


class InvalidateDirective:
    """The cached copies one thread must drop: every page noticed this
    round except the thread's own single-writer pages.

    Never materialised on the barrier path: its length is arithmetic (the
    directive message is sized from it) and :meth:`intersection` resolves
    it against the few pages a cache actually holds. Iterating it does
    build the page list, for tests and diagnostics.
    """

    __slots__ = ("_plan", "_kept")

    def __init__(self, plan: BarrierPlan, kept: np.ndarray):
        self._plan = plan
        self._kept = kept

    def __len__(self) -> int:
        return self._plan.pages.size - self._kept.size

    def intersection(self, pages: set[int]) -> set[int]:
        """The members of ``pages`` this directive lists, as a new set."""
        if self._plan.pages.size == self._kept.size:
            return set()
        hits = pages & self._plan.members()
        if hits:
            hits.difference_update(self._kept.tolist())
        return hits

    def __iter__(self):
        return iter(np.setdiff1d(self._plan.pages, self._kept,
                                 assume_unique=True).tolist())


#: The directive every thread of a round that noticed no page gets while no
#: lock log anywhere has an epoch to ship (``Manager._directives``): nothing
#: to invalidate, flush or apply. One read-only object shared by every such
#: round; it names no round's plan, so it keeps none alive.
QUIET_DIRECTIVE = (
    InvalidateDirective(BarrierPlan(NO_PAGES, NO_PAGES, {}, {}, 0), NO_PAGES),
    (), (), ())


def group_reply(tids, directives=None) -> tuple[dict, int]:
    """``({tid: directive}, reply bytes)`` of one directive reply to
    ``tids``: a departing arrival group, or one node of a tree cell.

    ``directives`` maps (at least) ``tids`` to ``(invalidate, flush,
    cr_diffs, cr_invalidate)``. None is a quiet round: every thread gets
    :data:`QUIET_DIRECTIVE` and the size is arithmetic. A round's
    directives for one group are built together, so if one of them is
    the quiet directive, all are."""
    for tid in tids:
        break
    if directives is None or directives[tid] is QUIET_DIRECTIVE:
        return (dict.fromkeys(tids, QUIET_DIRECTIVE),
                protocol.directive_group_bytes(len(tids)))
    mine = {}
    nbytes = 0
    for tid in tids:
        inv, flush, cr_diffs, cr_invalidate = mine[tid] = directives[tid]
        nbytes += (protocol.directive_message_bytes(len(inv), len(flush))
                   + protocol.PAGE_ID_BYTES * len(cr_invalidate))
        for diff in cr_diffs:
            nbytes += diff.payload_bytes
    return mine, nbytes


def _notice_vector(pages) -> np.ndarray:
    """One thread's notices, ascending and distinct. A vector is taken to
    be both already (``SoftwareCache.take_epoch_notices`` hands one over);
    any other collection is normalised."""
    if isinstance(pages, np.ndarray):
        return pages
    return np.unique(np.array(list(pages), dtype=np.int64))


def plan_barrier(notices: Mapping[int, Collection[int]],
                 directory: PageDirectory) -> BarrierPlan:
    """Aggregate write notices into flush/invalidate directives.

    Updates ``directory`` ownership as a side effect: single-writer pages
    become owned by their writer; multi-writer pages lose any owner because
    the eager merge makes the home authoritative again.
    """
    if not any(map(len, notices.values())):
        # A quiet round: nothing to own, flush or invalidate.
        tids = sorted(notices)
        return BarrierPlan(NO_PAGES, NO_PAGES, dict.fromkeys(tids, NO_PAGES),
                           {tid: [] for tid in tids}, 0)
    # In thread order, so that thread blocks concatenate ascending.
    kept = {tid: _notice_vector(notices[tid]) for tid in sorted(notices)}
    flat = np.concatenate(list(kept.values())) if kept else NO_PAGES
    flush: dict[int, list[int]] = {tid: [] for tid in kept}
    sizes = [own.size for own in kept.values()]
    writer = np.repeat(np.fromiter(kept, np.int64, len(kept)), sizes)
    if (flat[1:] > flat[:-1]).all():
        # Disjoint blocks noticed in thread order (a block-partitioned
        # grid): the concatenation is already the page list, one writer each.
        directory.record_owners(flat, writer)
        return BarrierPlan(flat, NO_PAGES, kept, flush, flat.size)
    # Writers per page: each thread's notices are distinct, so a page's
    # multiplicity in the concatenation is its number of writers, and a
    # single-writer page's one position names that writer.
    pages, first, writers = np.unique(flat, return_index=True,
                                      return_counts=True)
    single = writers == 1
    multi = pages[~single]
    if multi.size:
        directory.clear_owners(multi)
        shared = ~single[np.searchsorted(pages, flat)]
        start = 0
        for (tid, own), size in zip(list(kept.items()), sizes):
            mask = shared[start:start + size]
            flush[tid] = own[mask].tolist()
            kept[tid] = own[~mask]
            start += size
    directory.record_owners(pages[single], writer[first][single])
    return BarrierPlan(pages, multi, kept, flush, flat.size)


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
        #: The version at which a release next prunes (``Manager._prune_log``).
        self.prune_at = 0

    @property
    def version(self) -> int:
        return self._version

    def append(self, diffs: list[PageDiff], invalidate_pages=()) -> int:
        """Record one release's updates; returns the new version."""
        self._version += 1
        if len(diffs) == 1:  # a release that stored into one page
            diff = diffs[0]
            diffs, payload, spans = [diff], diff.payload_bytes, diff.n_spans
        else:
            diffs = list(diffs)
            payload = sum([d.payload_bytes for d in diffs])
            spans = sum([d.n_spans for d in diffs])
        self._epochs.append(_LogEpoch(
            self._version, diffs, payload, spans,
            tuple(invalidate_pages) if invalidate_pages else ()))
        return self._version

    def updates_since(self, tid: int) -> tuple[list[PageDiff], int, int, list[int]]:
        """Updates the thread has not seen.

        Returns ``(diffs, payload_bytes, spans, invalidate_pages)`` and
        marks the thread up to date.
        """
        seen = self.last_seen.get(tid, 0)
        epochs = self._epochs
        self.last_seen[tid] = self._version
        if seen >= self._version or not epochs:
            # Nothing outstanding (the overwhelmingly common case on the
            # coherence broadcast path, which walks every lock per barrier
            # arrival). Marking the thread up to date still matters when
            # old epochs were pruned away.
            return [], 0, 0, []
        # Versions are consecutive (one epoch per bump) and the list is
        # only ever trimmed from the front, so the unseen epochs are a
        # suffix that starts at a computable index.
        first = seen + 1 - epochs[0].version
        diffs: list[PageDiff] = []
        payload = spans = 0
        invalidate: list[int] = []
        for epoch in epochs[first if first > 0 else 0:]:
            diffs += epoch.diffs
            payload += epoch.payload_bytes
            spans += epoch.span_count
            if epoch.invalidate_pages:  # page-grain ablation only
                invalidate += epoch.invalidate_pages
        if invalidate:
            invalidate = sorted(set(invalidate))
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
        horizon = min(map(self.last_seen.get, tids, _ZEROS))
        # The consumed epochs are the prefix up to version ``horizon``.
        consumed = horizon + 1 - epochs[0].version
        if consumed > 0:
            del epochs[:consumed]

    def __len__(self) -> int:
        return len(self._epochs)
