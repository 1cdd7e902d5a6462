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

from repro.memory import ByteRanges, PageDiff, compute_diff_spans
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


def extraction_of_identical_bytes_before_pr22(page, current):
    """What ``_extract`` built, column by column, for a page whose dirty
    ranges equal their pre-image, before ``PageDiff.unchanged`` existed."""
    index = np.flatnonzero(np.zeros(current.shape[0], dtype=bool))
    return dict(page=page, index=index, payload=current[index],
                payload_bytes=0, starts=index, sizes=index, n_spans=0, end=0,
                wire_bytes=0)


@given(range_lists, st.integers(0, 2**32 - 1), st.integers(0, 1 << 40))
@settings(max_examples=100, deadline=None)
def test_unchanged_is_what_extraction_of_identical_bytes_returned(ranges, seed, page):
    current = np.random.default_rng(seed).integers(0, 256, PAGE, dtype=np.uint8)
    dirty = ByteRanges((s, min(s + n, PAGE)) for s, n in ranges)
    twin = SpanTwin(PAGE)
    twin.pre[:] = ~current
    for s, e in dirty:
        twin.pre[s:e] = current[s:e]
    want = extraction_of_identical_bytes_before_pr22(page, current)
    for got in (PageDiff.unchanged(page), twin.diff_spans(current, dirty, page)):
        for name, value in want.items():
            field = getattr(got, name)
            if isinstance(value, np.ndarray):
                assert (field.dtype, field.shape) == (value.dtype, value.shape), name
            else:
                assert field == value and type(field) is type(value), name
        assert got.empty and got.spans == []
        # A no-op wherever a diff lands: a home frame, a cached copy, a twin.
        image = current.copy()
        got.apply_to(image)
        mirror = SpanTwin(PAGE)
        mirror.pre[:] = current
        mirror.mirror(got)
        assert np.array_equal(image, current) and np.array_equal(mirror.pre, current)


def test_unchanged_diffs_share_read_only_columns():
    a, b = PageDiff.unchanged(1), PageDiff.unchanged(2)
    assert a.starts is b.starts and a.payload is b.payload
    for column in (a.starts, a.sizes, a.index, a.payload):
        assert not column.flags.writeable
