"""Batched access plans: whole-row/block memory traffic as one descriptor.

A kernel's inner loop is dominated by accesses that *hit* the software
cache and change no protocol state; driving each of them through its own
``ctx.read``/``ctx.write`` generator round-trip makes the discrete-event
engine the bottleneck. An :class:`AccessPlan` instead describes a run of
operations up front; the backend executes hits synchronously, accumulates
their simulated cost, and advances the clock in bulk, falling back to the
ordinary per-page protocol path only for misses (see
``SamhitaBackend.run_plan``). Backends without a batched executor run the
plan through the per-op compat path in ``ThreadCtx.submit`` -- a plan is a
description of accesses, never a change in their meaning.

A plan is one flat record list, six slots per operation, and may be
submitted any number of times: a kernel whose iterations repeat the same
accesses builds its plan once. The timing-mode executor derives page-level
vectors from the records on first use (:class:`HitColumns`, cached on the
plan) so that a long run of hits is a handful of array operations
(DESIGN.md S17).

Write data may be a callable ``fn(results) -> ndarray`` over the plan's
earlier read results, so read-modify-write rows need only one plan.
"""

from __future__ import annotations

import numpy as np

from repro.memory.cache import WIDE

#: Operation kinds (plain ints: compared in the executor's hot loop).
READ, WRITE, COMPUTE = 0, 1, 2


class AccessPlan:
    """An ordered batch of reads, writes and compute intervals.

    Submitted through ``ThreadCtx.submit``; equivalent to issuing each
    operation individually, in order (the compat path does exactly that).
    Operation ``i`` is the record ``ops[6 * i:6 * i + 6]``: ``(kind, addr,
    nbytes, payload, elements, flops)``; ``payload`` is a uint8 array,
    ``None`` (timing mode) or a callable mapping the read-results list to a
    uint8 array. The memory slots are 0 / ``None`` for a compute interval
    and the compute slots 0 for a memory operation. One flat list, not a
    tuple per operation: appending a record is one ``+=``, and there is no
    per-op object.
    """

    __slots__ = ("ops", "n_reads", "_hit_columns")

    def __init__(self):
        self.ops: list = []
        self.n_reads = 0
        self._hit_columns: HitColumns | None = None

    def read(self, addr: int, nbytes: int) -> int:
        """Append a read; returns its index into the results list."""
        self.ops += (READ, addr, nbytes, None, 0, 0.0)
        index = self.n_reads
        self.n_reads += 1
        return index

    def write(self, addr: int, nbytes: int,
              data: np.ndarray | None = None) -> "AccessPlan":
        """Append a write (``data``: uint8 bytes, callable, or None)."""
        self.ops += (WRITE, addr, nbytes, data, 0, 0.0)
        return self

    def compute(self, elements: int,
                flops_per_element: float = 2.0) -> "AccessPlan":
        """Append a compute interval (same costing as ``ctx.compute``)."""
        self.ops += (COMPUTE, 0, 0, None, elements, flops_per_element)
        return self

    def __len__(self) -> int:
        return len(self.ops) // 6

    def hit_columns(self, page_bytes: int, cost_model) -> "HitColumns":
        """The plan's page-level vectors for one page size and cost model,
        derived on first use and kept while the plan stays as it is."""
        cached = self._hit_columns
        if (cached is None or 6 * cached.n_ops != len(self.ops)
                or cached.page_bytes != page_bytes
                or cached.cost_model is not cost_model):
            cached = self._hit_columns = HitColumns(self, page_bytes,
                                                    cost_model)
        return cached


class HitColumns:
    """What executing a stretch of a plan's operations *as cache hits* does,
    as vectors over the plan's page touches.

    A *touch* is one access of one operation to one page; touches are
    numbered in execution order (operation by operation, pages ascending
    within one). A *dirty piece* is the byte range ``[lo, hi)`` a write
    touch dirties on its page. Everything here is a function of the plan's
    records, the page size and the thread's compute cost model alone -- no
    cache state -- which is why it can be cached on the plan and reused by
    every submission.

    Operations the bulk path must not cover are *cuts*: one spanning
    ``WIDE`` pages or more (``SoftwareCache._touch`` is already column
    operations for it), and the malformed ones (empty or negative spans,
    negative element counts) whose per-op path is an early return or an
    error. A cut contributes no touches here and always ends a run.
    """

    __slots__ = ("n_ops", "page_bytes", "cost_model", "pages", "_cuts",
                 "_touch_off", "_touch_op", "_touch_page", "_touch_unique",
                 "_next_touch", "_piece_prev", "_piece_lo", "_piece_hi",
                 "_piece_full", "_reads", "_read_bytes", "_writes",
                 "_write_bytes", "_computes", "_compute_dt")

    def __init__(self, plan: AccessPlan, page_bytes: int, cost_model):
        ops = plan.ops
        n = self.n_ops = len(ops) // 6
        self.page_bytes = page_bytes
        self.cost_model = cost_model
        kind = np.array(ops[0::6], dtype=np.int64)
        addr = np.array(ops[1::6], dtype=np.int64)
        nbytes = np.array(ops[2::6], dtype=np.int64)
        is_compute = kind == COMPUTE
        is_write = kind == WRITE
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        cut = ~is_compute & ((nbytes <= 0) | (addr < 0)
                             | (last - first + 1 >= WIDE))
        # Compute intervals: the same scalar call ``ctx.compute`` makes, once
        # per distinct (elements, flops), so every dt is the float the
        # per-op path charges. One that path would refuse is a cut.
        costs = list(zip(ops[4::6], ops[5::6]))
        element_time = cost_model.element_time
        dt_of = {cost: element_time(*cost) if cost[0] >= 0 else -1.0
                 for cost in set(costs)}
        dt = np.array([dt_of[cost] for cost in costs], dtype=np.float64)
        cut |= is_compute & (dt < 0)
        self._compute_dt = dt[is_compute & ~cut]
        self._cuts = cut.nonzero()[0]
        touching = ~(is_compute | cut)

        # -- the touch sequence -------------------------------------------
        n_pages = np.where(touching, last - first + 1, 0)
        off = self._touch_off = np.concatenate(([0], np.cumsum(n_pages)))
        total = int(off[-1])
        op = self._touch_op = np.repeat(np.arange(n), n_pages)
        page = self._touch_page = first[op] + (np.arange(total) - off[op])
        #: The distinct pages touched, ascending: the residency question a
        #: hit run asks is asked of these.
        self.pages, self._touch_unique = np.unique(page, return_inverse=True)
        # Next touch of the same page (``total`` if none): a touch is its
        # page's last in ``[t0, t1)`` iff that is >= t1.
        self._next_touch = np.full(total, total)
        order = np.argsort(page, kind="stable")
        again = page[order[1:]] == page[order[:-1]]
        self._next_touch[order[:-1][again]] = order[1:][again]

        # -- dirty pieces --------------------------------------------------
        # First page from the write's offset, last page up to its end, the
        # pages in between whole (``full``: SoftwareCache.write gives those
        # one extent whatever ranges they held).
        at_first = page == first[op]
        at_last = page == last[op]
        lo = self._piece_lo = np.where(at_first, addr[op] - page * page_bytes,
                                       0)
        hi = self._piece_hi = np.where(
            at_last, (addr + nbytes)[op] - page * page_bytes, page_bytes)
        full = self._piece_full = ~(at_first | at_last)
        # Previous touch dirtying the identical piece (-1 if none; ``total``
        # on a read touch, so it is never a first occurrence): a write touch
        # is its piece's first in ``[t0, t1)`` iff that is < t0.
        self._piece_prev = np.full(total, total)
        stores = is_write[op].nonzero()[0]
        if stores.size:
            order = stores[np.lexsort((full[stores], hi[stores], lo[stores],
                                       page[stores]))]
            prev, cur = order[:-1], order[1:]
            same = ((page[cur] == page[prev]) & (lo[cur] == lo[prev])
                    & (hi[cur] == hi[prev]) & (full[cur] == full[prev]))
            self._piece_prev[order[0]] = -1
            self._piece_prev[cur] = np.where(same, prev, -1)

        # -- counters and compute time, as prefix sums over operations ----
        def prefix(values):
            return np.concatenate(([0], np.cumsum(values)))

        reads = touching & (kind == READ)
        writes = touching & is_write
        self._reads = prefix(reads)
        self._read_bytes = prefix(np.where(reads, nbytes, 0))
        self._writes = prefix(writes)
        self._write_bytes = prefix(np.where(writes, nbytes, 0))
        self._computes = prefix(is_compute & ~cut)

    def run_end(self, start: int, missing: np.ndarray) -> int:
        """The operation at which a hit run starting at ``start`` ends: the
        first cut, or the first operation touching one of the ``missing``
        (non-resident) members of :attr:`pages`; ``n_ops`` if neither."""
        cuts = self._cuts
        stop = self.n_ops
        if cuts.size:
            at = cuts.searchsorted(start)
            if at < cuts.size:
                stop = int(cuts[at])
        if missing.size:
            absent = np.zeros(self.pages.size, dtype=np.bool_)
            absent[self.pages.searchsorted(missing)] = True
            t0 = self._touch_off[start]
            faulting = absent[self._touch_unique[t0:self._touch_off[stop]]]
            faulting = faulting.nonzero()[0]
            if faulting.size:
                stop = int(self._touch_op[t0 + faulting[0]])
        return stop

    def cache_effects(self, start: int, stop: int):
        """What operations ``[start, stop)`` do to the software cache when
        all of them hit -- the arguments of ``SoftwareCache.apply_hit_run``
        after the cache itself: touches, each touched page with the
        position of its last touch, the distinct dirty pieces ``(page, lo,
        hi, full)`` in first-occurrence order, and the read / write counts
        and bytes."""
        t0 = int(self._touch_off[start])
        t1 = int(self._touch_off[stop])
        last = (self._next_touch[t0:t1] >= t1).nonzero()[0]
        new = (self._piece_prev[t0:t1] < t0).nonzero()[0] + t0
        pieces = list(zip(self._touch_page[new].tolist(),
                          self._piece_lo[new].tolist(),
                          self._piece_hi[new].tolist(),
                          self._piece_full[new].tolist()))
        return (t1 - t0, self._touch_page[t0:t1][last], last, pieces,
                int(self._reads[stop] - self._reads[start]),
                int(self._read_bytes[stop] - self._read_bytes[start]),
                int(self._writes[stop] - self._writes[start]),
                int(self._write_bytes[stop] - self._write_bytes[start]))

    def compute_dts(self, start: int, stop: int) -> np.ndarray:
        """The compute intervals of operations ``[start, stop)``, in order
        (memory hits cost no simulated time)."""
        return self._compute_dt[self._computes[start]:self._computes[stop]]
