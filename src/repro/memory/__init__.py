"""DSM memory substrate: pages, caches, twins, diffs, store logs.

Samhita "views the problem of providing a shared global address space as a
cache management problem". This package is that machinery:

* :class:`MemoryLayout` -- address arithmetic (pages, multi-page cache lines);
* :class:`BackingStore` -- the memory-server side page frames (NumPy-backed
  in functional mode, metadata-only in timing mode);
* :class:`~repro.memory.pagetable.PageTable` -- the chunked struct-of-arrays
  both of the above keep their per-page state in;
* :class:`SoftwareCache` -- the per-compute-thread cache with demand paging,
  adjacent-line prefetch bookkeeping, and dirty-biased eviction;
* :mod:`repro.memory.diff` -- twin/diff support for the multiple-writer
  protocol;
* :class:`StoreLog` -- the fine-grained store instrumentation RegC uses
  inside consistency regions;
* :class:`PageDirectory` -- ownership records for lazily written-back pages.
"""

from repro.memory.layout import MemoryLayout
from repro.memory.backing import BackingStore
from repro.memory.diff import ByteRanges, PageDiff, compute_diff_spans
from repro.memory.storelog import StoreLog
from repro.memory.cache import CacheEntry, EvictionPolicy, SoftwareCache
from repro.memory.directory import PageDirectory

__all__ = [
    "BackingStore",
    "ByteRanges",
    "CacheEntry",
    "EvictionPolicy",
    "MemoryLayout",
    "PageDiff",
    "PageDirectory",
    "SoftwareCache",
    "StoreLog",
    "compute_diff_spans",
]
