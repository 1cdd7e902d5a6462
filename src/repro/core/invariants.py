"""Global protocol invariants, checkable on a live or finished system.

The RegC/ownership machinery maintains cross-component invariants that no
single unit test can see. :func:`check_invariants` walks a whole
:class:`~repro.core.system.SamhitaSystem` and raises on the first
violation; integration tests call it after (and during) runs, and it is
cheap enough to sprinkle into debugging sessions.
"""

from __future__ import annotations

from repro.errors import ConsistencyError


class InvariantViolation(ConsistencyError):
    """A cross-component protocol invariant does not hold."""


def check_invariants(system, quiescent: bool = True) -> int:
    """Verify system-wide invariants; returns the number of checks made.

    ``quiescent=True`` adds the checks that only hold when no thread is
    mid-operation (e.g. after ``run()`` completes).
    """
    checks = 0

    # I1: a directory owner must actually hold the page dirty in its cache
    # (otherwise its lazy write-back data is unrecoverable). Exception:
    # during an IVY upgrade the grant precedes the write; quiescent runs
    # must satisfy it strictly under RegC.
    if quiescent and system.config.coherence == "regc":
        for page in system.directory.owned_by():
            owner = system.directory.owner_of(page)
            if not system.cache_of(owner).is_dirty(page):
                raise InvariantViolation(
                    f"page {page} owned by t{owner} but not dirty-resident there")
            checks += 1

    # I2: cache capacity is never exceeded.
    for tid in system.thread_ids:
        cache = system.cache_of(tid)
        if cache.resident_pages > cache.capacity_pages:
            raise InvariantViolation(
                f"cache.t{tid} holds {cache.resident_pages} pages "
                f"(capacity {cache.capacity_pages})")
        checks += 1

    # I3: a clean entry carries no twin (twins exist only for dirty epochs).
    for tid in system.thread_ids:
        for page, entry in system.cache_of(tid).entries.items():
            if not entry.is_dirty and entry.twin is not None:
                raise InvariantViolation(
                    f"cache.t{tid} page {page}: twin without dirty state")
            checks += 1

    # I4: every resident page belongs to some allocation (no wild pages).
    for tid in system.thread_ids:
        for page in system.cache_of(tid).resident_page_set():
            try:
                system.allocator.home_of_page(page)
            except Exception as exc:
                raise InvariantViolation(
                    f"cache.t{tid} holds unallocated page {page}") from exc
            checks += 1

    # I5: under IVY, at most one thread holds a page dirty, and it is the
    # directory owner.
    if system.config.coherence == "ivy":
        for page in _all_resident_pages(system):
            dirty_holders = [tid for tid in system.thread_ids
                             if system.cache_of(tid).is_dirty(page)]
            if len(dirty_holders) > 1:
                raise InvariantViolation(
                    f"IVY page {page} dirty at multiple threads {dirty_holders}")
            if dirty_holders and quiescent:
                owner = system.directory.owner_of(page)
                if owner != dirty_holders[0]:
                    raise InvariantViolation(
                        f"IVY page {page} dirty at t{dirty_holders[0]} but "
                        f"owned by {owner}")
            checks += 1

    # I6: region trackers are balanced when quiescent (every lock released).
    if quiescent:
        for tid in system.thread_ids:
            tracker = system.region_tracker_of(tid)
            if tracker.in_consistency_region:
                raise InvariantViolation(
                    f"t{tid} finished inside a consistency region "
                    f"(depth {tracker.depth})")
            checks += 1

    # I7: store logs are drained when quiescent (flushed at every release).
    if quiescent:
        for tid in system.thread_ids:
            log = system._storelogs[tid]
            if not log.empty:
                raise InvariantViolation(
                    f"t{tid} finished with {len(log)} undelivered CR stores")
            checks += 1

    return checks


def _all_resident_pages(system) -> set[int]:
    pages: set[int] = set()
    for tid in system.thread_ids:
        pages.update(system.cache_of(tid).resident_page_set())
    return pages
