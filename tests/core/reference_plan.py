"""The set-based barrier planner, kept as the oracle of the vector one.

``plan_barrier`` here is the planner ``repro.core.consistency`` shipped
before page-id collections became vectors, verbatim: it builds, for every
thread, the set of every page anyone else wrote -- O(threads x pages) -- which
is exactly what the shipped planner must never do, and exactly what makes
this one easy to believe. ``tests/property/test_barrier_plan_equivalence.py`` checks
the two against each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass
class ReferencePlan:
    invalidate: dict[int, set[int]]
    flush: dict[int, list[int]]
    multi_writer_pages: set[int]
    total_notices: int


def plan_barrier(notices: Mapping[int, Iterable[int]], directory) -> ReferencePlan:
    notice_sets = {tid: set(pages) for tid, pages in notices.items()}
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
    return ReferencePlan(invalidate=invalidate, flush=flush,
                         multi_writer_pages=multi, total_notices=total)
