"""The per-line fault scan, kept as the oracle of the run-wise one.

``fault_lines_batched`` here is the scan ``repro.core.rtbatch`` shipped
before page-id collections became vectors: it visits the faulted lines one
at a time, probes residency page by page, asks the allocator and the
directory about single pages, and builds Python lists. It hands those lists
(as vectors) back to the shipped ``fetch_batched``, so swapping it in for
the shipped scan must leave every counter and every event where it was.
"""

from __future__ import annotations

import numpy as np

from repro.core.rtbatch import PREFETCH_DEGREE
from repro.errors import MemoryError_


def _allocated_only(cs, pages: list[int]) -> list[int]:
    allocated_span = cs.system.allocator.allocated_span
    span = None
    out = []
    for page in pages:
        if span is None or not span[0] <= page < span[1]:
            span = allocated_span(page)
            if span is None:
                continue
        out.append(page)
    return out


def _speculative_pages(cs, tid: int, targets, exclude: frozenset) -> list[int]:
    cache = cs.system.cache_of(tid)
    resident = cache.resident_page_set()
    line_pages = cache.layout.line_pages
    owner_of = cs.system.directory.owner_of
    pages: list[int] = []
    seen: set[int] = set()
    for line in targets:
        if line in exclude or line in seen:
            continue
        seen.add(line)
        missing = [p for p in line_pages(line) if p not in resident]
        for p in _allocated_only(cs, missing):
            owner = owner_of(p)
            if owner is None or owner == tid:
                pages.append(p)
    return pages


def fault_lines_batched(cs, tid: int, missing: np.ndarray, first: int,
                        stop: int):
    """The shipped scan's signature and result, ``(demand, spec, lines)``;
    ``missing`` (the span's ``SoftwareCache.missing_in`` vector) only
    names the lines to visit."""
    cache = cs.system.cache_of(tid)
    counters = cs.stats.counters
    line_pages = cache.layout.line_pages
    resident = cache.resident_page_set()
    demand: list[int] = []
    missed_lines: list[int] = []
    for line in cache.layout.lines_of(missing):
        still = [p for p in line_pages(line) if p not in resident]
        still = _allocated_only(cs, still)
        if still:
            counters["faults"] += 1
            demand.extend(still)
            missed_lines.append(line)
    if not missed_lines:
        raise MemoryError_(f"thread {tid} accessed unallocated page "
                           f"{missing.item(0) * cache.layout.page_bytes:#x}")
    spec: list[int] = []
    if cs.system.config.prefetch and len(missed_lines) <= PREFETCH_DEGREE:
        targets = [line + 1 for line in missed_lines]
        spec = _speculative_pages(cs, tid, targets, frozenset(missed_lines))
    counters["batched_line_fetches"] += 1
    counters["batched_lines"] += len(missed_lines)
    if spec:
        counters["speculative_riders"] += len(spec)
    per_line = cache.layout.pages_per_line
    lines = len(missed_lines) + len({p // per_line for p in spec})
    return (np.array(demand, dtype=np.int64), np.array(spec, dtype=np.int64),
            lines)
