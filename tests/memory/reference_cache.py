"""Dict-of-records reference model of ``SoftwareCache`` (test oracle).

One Python record per resident page, a ``ByteRanges`` per record, a
whole-page twin copied at the first ordinary write, and a full sort per
victim choice: the obvious implementation, kept here so the columnar cache
in :mod:`repro.memory.cache` has something independent to agree with
(``tests/property/test_cache_equivalence.py``). Only valid operations are
modelled -- the drivers never access a non-resident page.
"""

from collections import Counter

import numpy as np

from repro.memory import ByteRanges, EvictionPolicy, PageDiff
from tests.memory.reference_diff import reference_spans


class Entry:
    def __init__(self, page, data, tick, prefetched):
        self.page, self.data, self.twin = page, data, None
        self.dirty = ByteRanges()
        self.last_access, self.prefetched = tick, prefetched


class ReferenceCache:
    def __init__(self, layout, capacity_pages, functional=True,
                 policy=EvictionPolicy.DIRTY_BIASED, use_twins=True):
        self.layout, self.capacity_pages = layout, capacity_pages
        self.functional, self.policy, self.use_twins = functional, policy, use_twins
        self.entries = {}
        self.stats = Counter()
        self.epoch_written = set()
        self.inval_epoch = Counter()
        self.inflight = {}
        self.tick = 0

    def install(self, page, data, prefetched=False):
        if page in self.entries:
            self.entries[page].data = data
            self.entries[page].prefetched = prefetched
            return
        self.tick += 1
        self.entries[page] = Entry(page, data, self.tick, prefetched)
        self.stats["installs"] += 1
        self.stats["prefetch_installs"] += prefetched

    def install_many(self, pages, data, prefetched=False):
        for page in pages:
            self.install(page, data.get(page), prefetched)

    def _pieces(self, addr, nbytes):
        """``(entry, offset, length)`` per touched page, touching each."""
        page_bytes = self.layout.page_bytes
        for page in self.layout.pages_spanning(addr, nbytes):
            entry = self.entries[page]
            self.tick += 1
            entry.last_access = self.tick
            self.stats["page_touches"] += 1
            self.stats["prefetch_hits"] += entry.prefetched
            entry.prefetched = False
            start = max(addr, page * page_bytes)
            end = min(addr + nbytes, (page + 1) * page_bytes)
            yield entry, start - page * page_bytes, end - start

    def read(self, addr, nbytes):
        self.stats["reads"] += 1
        self.stats["read_bytes"] += nbytes
        parts = [e.data[off:off + n] if self.functional else None
                 for e, off, n in self._pieces(addr, nbytes)]
        return b"".join(bytes(p) for p in parts) if self.functional else None

    def write(self, addr, nbytes, data, ordinary=True):
        self.stats["writes"] += 1
        self.stats["write_bytes"] += nbytes
        consumed = 0
        for entry, off, n in self._pieces(addr, nbytes):
            if ordinary:
                if self.functional and self.use_twins and entry.twin is None:
                    entry.twin = entry.data.copy()
                    self.stats["twins_created"] += 1
                entry.dirty.add(off, off + n)
                self.epoch_written.add(entry.page)
            if self.functional:
                entry.data[off:off + n] = data[consumed:consumed + n]
                if not ordinary and entry.twin is not None:
                    entry.twin[off:off + n] = data[consumed:consumed + n]
            consumed += n

    def _diff_of(self, entry):
        if not self.use_twins:
            if self.functional:
                return PageDiff(entry.page, spans=[(0, entry.data.copy())])
            return PageDiff(entry.page, spans=[(0, None)],
                            sizes=[self.layout.page_bytes])
        if self.functional:
            return PageDiff(entry.page, spans=[
                (off, np.frombuffer(run, np.uint8))
                for off, run in reference_spans(entry.twin, entry.data)])
        return PageDiff.from_ranges(entry.page, entry.dirty)

    def take_diff(self, page):
        entry = self.entries[page]
        if entry.dirty.empty:
            return None
        diff = self._diff_of(entry)
        entry.twin = None
        entry.dirty.clear()
        self.stats["diffs_taken"] += 1
        self.stats["diff_bytes"] += diff.payload_bytes
        return diff

    def take_diff_sizes(self, pages):
        diffs = [self.take_diff(p) for p in pages if p in self.entries]
        diffs = [d for d in diffs if d is not None]
        return ([d.page for d in diffs], sum(d.payload_bytes for d in diffs),
                sum(d.wire_bytes for d in diffs))

    def choose_victims(self, count, protect=()):
        keys = {EvictionPolicy.DIRTY_BIASED: lambda e: (e.dirty.empty, e.last_access),
                EvictionPolicy.CLEAN_FIRST: lambda e: (not e.dirty.empty, e.last_access),
                EvictionPolicy.LRU: lambda e: e.last_access}
        candidates = [e for p, e in self.entries.items() if p not in set(protect)]
        return [e.page for e in sorted(candidates, key=keys[self.policy])[:count]]

    def evict(self, page):
        entry = self.entries.pop(page)
        self.stats["evictions"] += 1
        self.stats["evictions_clean" if entry.dirty.empty else "evictions_dirty"] += 1
        return None if entry.dirty.empty else self._diff_of(entry)

    def begin_fetch(self, pages):
        token = object()
        self.inflight[token] = set(pages)
        return token

    def end_fetch(self, token):
        del self.inflight[token]

    def invalidate(self, pages):
        pages = set(pages)
        bump = set().union(*self.inflight.values()) & pages if self.inflight else set()
        self.inval_epoch.update(bump)
        dropped = sorted(pages & self.entries.keys())
        for page in dropped:
            del self.entries[page]
        self.stats["invalidations"] += len(dropped)
        return dropped
