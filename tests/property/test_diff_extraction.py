"""Property tests: columnar diff extraction against the byte-loop reference.

``SpanTwin.diff_spans`` scans only the dirty ranges of a page whose twin
holds garbage everywhere else; it must find, span for span, what a Python
loop over the bytes finds, and what the whole-page ``compute_diff_spans``
finds against a real whole-page twin. Applying the extracted diff to the
pre-image must reproduce the current page.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import ByteRanges, compute_diff_spans
from repro.memory.diff import SpanTwin
from tests.memory.reference_diff import reference_spans

PAGE = 256

range_lists = st.lists(st.tuples(st.integers(0, PAGE - 1), st.integers(1, 48)),
                       max_size=6)
#: How the bytes of a dirty range change: per-byte coin flips at a few
#: densities, nothing at all, or every byte.
densities = st.sampled_from([0.0, 0.1, 0.5, 0.875, 1.0])


def view(diff):
    return [(off, bytes(data)) for off, data in diff.spans]


def check(pre, current, dirty):
    """``dirty`` covers every byte where ``current`` differs from ``pre``."""
    twin = SpanTwin(len(pre))
    twin.pre[:] = ~current  # garbage that differs everywhere ...
    for s, e in dirty:
        twin.pre[s:e] = pre[s:e]  # ... except where a write snapshotted it
    diff = twin.diff_spans(current, dirty, page=5)
    expected = reference_spans(twin.pre, current, dirty)
    assert view(diff) == expected
    assert view(compute_diff_spans(pre, current)) == expected
    assert diff.page == 5 and diff.n_spans == len(expected)
    assert diff.sizes.tolist() == [len(run) for _, run in expected]
    assert diff.payload_bytes == sum(len(run) for _, run in expected)
    assert diff.wire_bytes == diff.payload_bytes + 8 * len(expected)
    rebuilt = pre.copy()
    diff.apply_to(rebuilt)
    assert np.array_equal(rebuilt, current)
    return diff


@given(range_lists, densities, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_extraction_matches_the_byte_loop(ranges, density, seed):
    rng = np.random.default_rng(seed)
    dirty = ByteRanges((s, min(s + n, PAGE)) for s, n in ranges)
    pre = rng.integers(0, 256, PAGE, dtype=np.uint8)
    current = pre.copy()
    for s, e in dirty:
        flip = rng.random(e - s) < density
        current[s:e][flip] ^= rng.integers(1, 256, int(flip.sum()), dtype=np.uint8)
    check(pre, current, dirty)


def test_every_double_differs_in_seven_of_eight_bytes():
    pre = np.zeros(4096, np.uint8)
    current = pre.copy()
    current.reshape(512, 8)[:, :7] = 1  # the exponent byte stays equal
    diff = check(pre, current, ((0, 4096),))
    assert diff.n_spans == 512 and diff.payload_bytes == 7 * 512


@pytest.mark.parametrize("dirty", [((0, 4096),), ((0, 100), (200, 4096))])
def test_fully_changed_ranges(dirty):
    pre = np.arange(4096, dtype=np.uint32).astype(np.uint8)
    current = pre.copy()
    for s, e in dirty:
        current[s:e] ^= 0xFF
    assert check(pre, current, dirty).n_spans == len(dirty)


def test_runs_ending_on_range_edges_do_not_join():
    pre = np.zeros(64, np.uint8)
    current = pre.copy()
    current[8:16] = 1   # fills its range edge to edge
    current[17:20] = 2  # starts on the next range's first byte
    current[60:64] = 3  # ends with the page
    diff = check(pre, current, ByteRanges([(8, 16), (17, 32), (40, 64)]))
    assert diff.starts.tolist() == [8, 17, 60]


def test_all_equal_ranges_yield_an_empty_diff():
    pre = np.full(64, 7, np.uint8)
    for dirty in (((4, 20),), ((4, 20), (30, 40)), ()):
        diff = check(pre, pre.copy(), dirty)
        assert diff.empty and diff.payload_bytes == 0 and diff.wire_bytes == 0
