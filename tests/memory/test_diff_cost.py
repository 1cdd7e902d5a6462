"""Deterministic cost gate for the write-back path (ROADMAP aim 1: "calls
per page" proxies gate CI where wall clock is too noisy to).

Taking a page's diff and merging it at the home must cost a constant number
of calls, builtins included, however many runs the page has: the diff is
columns, and no step of extraction or application walks its spans.
"""

import gc
import sys

import numpy as np

from repro.memory import BackingStore, MemoryLayout, SoftwareCache

L = MemoryLayout(page_bytes=4096, pages_per_line=4)
BOUND = 60


def calls_to_write_back(runs: int) -> int:
    """Calls made by ``take_diff`` + ``apply_diff`` of one 4 KB page in
    which every one of ``runs`` doubles changed in 7 of its 8 bytes."""
    cache = SoftwareCache(L, capacity_pages=8, functional=True)
    home = BackingStore(L)
    cache.install(0, np.zeros(4096, np.uint8))
    page = np.zeros((512, 8), np.uint8)
    page[:runs, :7] = 1
    cache.write(0, 4096, page.reshape(-1))

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    # No collection while counting: once any hypothesis test has run, a
    # Python-level gc callback is installed and would be counted here.
    gc.disable()
    sys.setprofile(count)
    try:
        diff = cache.take_diff(0)
        home.apply_diff(diff)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert diff.n_spans == runs and diff.payload_bytes == 7 * runs
    assert np.array_equal(home.read_page(0), page.reshape(-1))
    return calls


def test_write_back_cost_does_not_grow_with_the_number_of_runs():
    one, many = calls_to_write_back(1), calls_to_write_back(512)
    assert many <= BOUND  # ~1,600 with one tuple and one slice store per run
    assert many == one
