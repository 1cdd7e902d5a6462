"""Deterministic cost gates for the write-back path (ROADMAP aim 1: "calls
per page" proxies gate CI where wall clock is too noisy to).

Taking a page's diff and merging it at the home must cost a constant number
of calls, builtins included, however many runs the page has: the diff is
columns, and no step of extraction or application walks its spans. A page
that did not change costs next to nothing to write back, and a batch of
them one call per page to take, a recall costs host work per trip plus a
little per page, a functional store or read of a span inside one chunk
costs the same at any width (page bytes are rows of one array per chunk:
a span is a slice), a serve costs no call per page (a fancy index per
chunk), a span walk is one call however many chunks it crosses, and a
trip's retransmit floor is priced once per route and size (DESIGN.md S20).
"""

import gc
import sys
from itertools import repeat

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.core.rtbatch import trip_timeout_floor
from repro.faults import FaultInjector, FaultPlan
from repro.memory import BackingStore, MemoryLayout, SoftwareCache
from repro.memory.pagetable import CHUNK_PAGES, PageTable
from repro.resilience.wal import ReplicationLog

L = MemoryLayout(page_bytes=4096, pages_per_line=4)
PAGE = L.page_bytes
BOUND = 60
#: take + log + merge of one unchanged page (15 today, 16 before the merge
#: read the frame's row in place; ``take_diff`` + ``wal.append`` +
#: ``apply_diff`` made 26, and one crc32 over the frame at its next serve).
UNCHANGED_BOUND = 16
#: One more page in an 8-page replicated functional recall: 12 pages minus
#: 8, per page (14 today, 43 on the parent).
RECALL_PAGE_BOUND = 25
#: One more full page in a functional store, first write: nothing -- the
#: twin rows' pre-image and the bytes are one slice copy each per chunk
#: segment (2 before: a twin object and its buffer per page; 3 before the
#: extents were read per chunk segment).
STORE_FIRST_PAGE_BOUND = 0
#: ... and a rewrite inside the dirty extent: nothing (2 before).
STORE_REWRITE_PAGE_BOUND = 0
#: One more page with a cached checksum in a serve: nothing -- a chunk's
#: rows are copied out with one fancy index (1 before: its copy; 3 before
#: that: ``ensure``, the checksum helper, the copy).
SERVE_PAGE_BOUND = 0
#: One more page in a serve that creates its frames: nothing (4 before:
#: ``_create``, its ``np.zeros`` and the copy, plus the stat).
SERVE_CREATE_PAGE_BOUND = 0
#: One more page in ``take_diffs`` of a batch of unchanged pages: its
#: ``PageDiff.unchanged`` (6 before: ``.item`` twice, ``_diff_of``, two
#: ``tobytes`` and ``unchanged``).
TAKE_UNCHANGED_PAGE_BOUND = 1
#: A warm ``trip_timeout_floor``: itself and two memoized ``path_time``
#: (43 before, each ``path_time`` walking the route).
TRIP_FLOOR_BOUND = 4
#: ``PageTable.segments`` over a span inside one chunk, or one crossing
#: into a second: the call itself (4 and 7 as a generator).
SEGMENTS_BOUND = 1


def count_calls(fn) -> tuple[int, int]:
    """``(calls, crc32 calls)`` made by ``fn()``, builtins included."""
    calls = crcs = 0

    def count(frame, event, arg):
        nonlocal calls, crcs
        calls += event in ("call", "c_call")
        crcs += event == "c_call" and arg.__name__ == "crc32"

    # No collection while counting: once any hypothesis test has run, a
    # Python-level gc callback is installed and would be counted here.
    gc.disable()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls - 2, crcs  # minus fn itself and the setprofile(None)


def calls_to_write_back(runs: int) -> int:
    """Calls made by ``take_diff`` + ``apply_diff`` of one 4 KB page in
    which every one of ``runs`` doubles changed in 7 of its 8 bytes."""
    cache = SoftwareCache(L, capacity_pages=8, functional=True)
    home = BackingStore(L)
    cache.install(0, np.zeros(4096, np.uint8))
    page = np.zeros((512, 8), np.uint8)
    page[:runs, :7] = 1
    cache.write(0, 4096, page.reshape(-1))

    taken = []

    def write_back():
        taken.append(cache.take_diff(0))
        home.apply_diff(taken[0])

    calls, _ = count_calls(write_back)
    diff = taken[0]
    assert diff.n_spans == runs and diff.payload_bytes == 7 * runs
    assert np.array_equal(home.read_page(0), page.reshape(-1))
    return calls


def test_write_back_cost_does_not_grow_with_the_number_of_runs():
    one, many = calls_to_write_back(1), calls_to_write_back(512)
    assert many <= BOUND  # ~1,600 with one tuple and one slice store per run
    assert many == one


def test_an_unchanged_page_costs_next_to_nothing_to_write_back():
    """take + log + merge of a page rewritten with the bytes it held, as a
    replicated recall does them, and the next serve of the frame."""
    cache = SoftwareCache(L, capacity_pages=8, functional=True)
    home = BackingStore(L)
    home.integrity = True
    wal = ReplicationLog(0)
    cache.install(0, np.zeros(PAGE, np.uint8))
    crc = home.page_crc(0)
    cache.write(0, PAGE, np.zeros(PAGE, np.uint8))
    assert cache.is_dirty(0)

    def write_back():
        diffs = cache.take_diffs((0,))
        wal.extend(diffs, repeat((1,)))
        home.apply_diffs(diffs)

    calls, _ = count_calls(write_back)
    assert calls <= UNCHANGED_BOUND
    # Every stat and log entry the parent made is still made ...
    assert not cache.is_dirty(0) and cache.stats.get("diffs_taken") == 1
    assert len(wal) == 1 and wal.entries[0].diff.n_spans == 0
    assert home.version_of(0) == 1 and home.stats.get("diffs_applied") == 1
    # ... and the frame's checksum survived the merge that wrote no byte.
    _, crcs = count_calls(lambda: home.serve_pages([0]))
    assert crcs == 0 and home.page_crc(0) == crc


def calls_to_recall(n_pages: int) -> int:
    """Calls of one bulk recall (request, take, log, transfer, merge) of
    ``n_pages`` pages on the replicated two-server deployment, from an
    owner who rewrote them with the bytes they held (the Jacobi interior)."""
    system = SamhitaSystem.cluster(n_threads=2, config=SamhitaConfig.grayfail())
    owner, other = system.add_thread(), system.add_thread()
    barrier = system.create_barrier(2)
    where = {}

    def write():
        where["base"] = yield from system.malloc(owner, n_pages * PAGE,
                                                 shared=True)
        yield from system.mem_write(owner, where["base"], n_pages * PAGE,
                                    np.zeros(n_pages * PAGE, np.uint8))
        yield from system.barrier_wait(owner, barrier)

    system.process(write())
    system.process(system.barrier_wait(other, barrier))
    system.run()
    first = where["base"] // PAGE
    pages = np.arange(first, first + n_pages)
    server = system.server_of_page(first)
    assert (system.directory.owners_of(pages) == owner).all()

    def recall():
        pending = server._recall_bulk(owner, pages)
        if pending is not None:
            system.process(pending)
            system.run()

    calls, _ = count_calls(recall)
    assert server.stats.get("recalls") == n_pages
    assert server.stats.get("recall_trips") == 1
    assert len(system.resilience.wals[server.index]) == server.backing.stats.get("diffs_applied") == n_pages
    assert not len(system.directory)
    assert not system.cache_of(owner).dirty_page_ids()
    return calls


def test_a_recall_costs_host_work_per_trip_and_little_per_page():
    assert (calls_to_recall(12) - calls_to_recall(8)) / 4 <= RECALL_PAGE_BOUND


def calls_per_stored_page(rewrite: bool) -> float:
    """Marginal calls per page of one functional multi-page store (16 pages
    minus 8), first write or a rewrite of pages already dirty all over."""
    def calls(n_pages):
        cache = SoftwareCache(L, capacity_pages=32, functional=True)
        cache.install_many(list(range(n_pages)),
                           {p: np.zeros(PAGE, np.uint8) for p in range(n_pages)})
        data = np.ones(n_pages * PAGE, np.uint8)
        if rewrite:
            cache.write(0, n_pages * PAGE, data)
        made, _ = count_calls(lambda: cache.write(0, n_pages * PAGE, data))
        assert cache.dirty_page_ids() == list(range(n_pages))
        return made
    return (calls(16) - calls(8)) / 8


def test_a_full_page_store_costs_a_few_calls_per_page():
    assert calls_per_stored_page(rewrite=False) <= STORE_FIRST_PAGE_BOUND
    assert calls_per_stored_page(rewrite=True) <= STORE_REWRITE_PAGE_BOUND


def test_a_served_page_with_a_cached_checksum_costs_its_copy():
    """... which is one fancy index per chunk, not a call per page."""
    def calls(n_pages):
        store = BackingStore(L)
        store.integrity = True
        pages = list(range(n_pages))
        crcs = {page: store.page_crc(page) for page in pages}
        served = []
        made, zlib_calls = count_calls(
            lambda: served.append(store.serve_pages(pages)))
        assert zlib_calls == 0 and served[0][1] == crcs
        return made
    assert (calls(16) - calls(8)) / 8 <= SERVE_PAGE_BOUND


def test_a_serve_that_creates_its_frames_costs_no_call_per_page():
    def calls(n_pages):
        store = BackingStore(L)
        pages = list(range(n_pages))
        served = []
        made, _ = count_calls(lambda: served.append(store.serve_pages(pages)))
        data, crcs = served[0]
        assert crcs is None and list(data) == pages
        assert not any(row.any() for row in data.values())
        assert store.stats.get("frames_created") == store.resident_pages == n_pages
        # Python ints: a NumPy scalar would change the repr of every stats
        # report, and with it every pass fingerprint.
        assert {type(v) for v in store.stats.snapshot().values()} == {int}
        return made
    assert (calls(16) - calls(8)) / 8 <= SERVE_CREATE_PAGE_BOUND


def test_taking_a_batch_of_unchanged_pages_costs_one_call_per_page():
    """``take_diffs`` of pages rewritten with the bytes they held (a
    recall of a stencil's interior): one masked row compare per chunk run
    finds them unchanged, then one ``PageDiff.unchanged`` each."""
    def calls(n_pages):
        cache = SoftwareCache(L, capacity_pages=32, functional=True)
        pages = list(range(n_pages))
        cache.install_many(pages, {p: np.full(PAGE, p, np.uint8) for p in pages})
        for p in pages:
            cache.write(p * PAGE + 64, 512, np.full(512, p, np.uint8))
        taken = []
        made, _ = count_calls(lambda: taken.extend(cache.take_diffs(pages)))
        assert [d.page for d in taken] == pages
        assert not any(d.n_spans for d in taken)
        assert not cache.dirty_page_ids()
        return made
    assert (calls(16) - calls(8)) / 8 <= TAKE_UNCHANGED_PAGE_BOUND


@pytest.mark.parametrize("op", ["read", "first write", "rewrite"])
def test_a_span_inside_one_chunk_costs_the_same_at_8_and_32_pages(op):
    """A functional read or store of a span is a slice of the chunk's flat
    byte view (plus the twin's for a first write), whatever its width."""
    def calls(n_pages):
        cache = SoftwareCache(L, capacity_pages=64, functional=True)
        cache.install_many(list(range(n_pages)),
                           {p: np.zeros(PAGE, np.uint8) for p in range(n_pages)})
        addr, nbytes = 100, n_pages * PAGE - 200
        data = np.ones(nbytes, np.uint8)
        if op == "rewrite":
            cache.write(addr, nbytes, data)
        got = []
        if op == "read":
            made, _ = count_calls(lambda: got.append(cache.read(addr, nbytes)))
            assert got[0].size == nbytes and not got[0].any()
        else:
            made, _ = count_calls(lambda: cache.write(addr, nbytes, data))
            assert (cache.read(addr, nbytes) == 1).all()
            assert cache.dirty_page_ids() == list(range(n_pages))
        return made
    assert calls(8) == calls(32)


def test_a_warm_trip_timeout_floor_is_priced_once():
    system = SamhitaSystem.cluster(n_threads=2, config=SamhitaConfig.grayfail())
    system.fabric.attach_injector(FaultInjector(FaultPlan(seed=3)))
    cold = trip_timeout_floor(system, "node0", "node1", 8)
    warm = [None]

    def price():
        warm[0] = trip_timeout_floor(system, "node0", "node1", 8)

    made, _ = count_calls(price)
    assert made <= TRIP_FLOOR_BOUND and warm == [cold]


def test_a_span_walk_is_one_call_however_many_chunks_it_crosses():
    table = PageTable((np.int64,))
    table.chunk(0)
    for first, stop in ((10, 84), (CHUNK_PAGES - 30, CHUNK_PAGES + 40)):
        walked = []
        made, _ = count_calls(lambda: walked.extend(table.segments(first, stop)))
        assert made - 1 <= SEGMENTS_BOUND  # minus the test's own extend
        assert sum(b - a for _, a, b, _ in walked) == stop - first
