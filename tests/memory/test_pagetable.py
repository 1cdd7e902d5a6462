"""The chunked struct-of-arrays under the cache and the backing store."""

import numpy as np

import pytest

from repro.memory.pagetable import CHUNK_PAGES, PageTable

#: Where gather / scatter used to switch from a page walk to per-chunk
#: index arrays (16), and from the walk to one take / put inside a chunk
#: (8): batches on both sides of both stay in the matrix.
NARROW, ONE_CHUNK = 16, 8


def test_chunks_appear_on_first_touch_only():
    table = PageTable((np.int64, 64, None))
    assert table.chunks == {}
    cols = table.chunk(3)
    assert cols[0].shape == (CHUNK_PAGES,) and not cols[0].any()
    # A byte column: zeroed rows, and its flat view after the columns.
    assert cols[1].shape == (CHUNK_PAGES, 64) and not cols[1].any()
    assert cols[2] is None and len(cols) == 4
    assert cols[3].shape == (CHUNK_PAGES * 64,)
    cols[3][64 + 5] = 7
    assert cols[1][1, 5] == 7
    assert table.chunk(3) is cols and list(table.chunks) == [3]


def test_segments_cover_a_span_chunk_by_chunk():
    table = PageTable((np.int64,))
    table.chunk(0)
    first, stop = CHUNK_PAGES - 3, 2 * CHUNK_PAGES + 2
    seen = list(table.segments(first, stop))
    assert [(a, b, page) for _, a, b, page in seen] == [
        (CHUNK_PAGES - 3, CHUNK_PAGES, first),
        (0, CHUNK_PAGES, CHUNK_PAGES),
        (0, 2, 2 * CHUNK_PAGES)]
    assert seen[0][0] is table.chunks[0] and seen[1][0] is None
    assert list(table.segments(5, 5)) == []


def test_gather_and_scatter_keep_input_order_over_sparse_pages():
    table = PageTable((np.int64, np.bool_))
    pages = np.array([1 << 28, 4, CHUNK_PAGES, 5, 3 * CHUNK_PAGES])
    table.scatter(0, pages, np.arange(10, 15), create=True)
    assert len(table.chunks) == 4           # pages 4 and 5 share one chunk
    assert table.gather(0, pages).tolist() == [10, 11, 12, 13, 14]
    assert table.gather(0, np.array([5, 77 * CHUNK_PAGES, 4])).tolist() == [13, 0, 11]
    table.scatter(1, pages[1:3], True)
    table.scatter(1, np.array([99 * CHUNK_PAGES]), True)   # no chunk: skipped
    assert 99 not in table.chunks
    live = sorted(p for _, _, found in table.live_rows(1) for p in found.tolist())
    assert live == [4, CHUNK_PAGES]
    assert table.gather(0, np.empty(0, dtype=np.int64)).size == 0


@pytest.mark.parametrize("n", [1, ONE_CHUNK - 1, ONE_CHUNK, NARROW - 1,
                               NARROW, 5 * NARROW])
def test_gather_and_scatter_agree_with_a_dict_on_both_sides_of_narrow(n):
    """A batch inside one chunk is one subscript, one across chunks is
    split by chunk; at every width both must read and write the cells a
    dict would."""
    rng = np.random.default_rng(n)
    universe = np.concatenate([
        np.arange(CHUNK_PAGES - 20, CHUNK_PAGES + 20),
        np.arange(9 * CHUNK_PAGES, 9 * CHUNK_PAGES + 40)])
    table, model = PageTable((np.int64, np.int32)), {}
    for step in range(6):
        pages = rng.choice(universe, size=n, replace=False)
        values = rng.integers(1, 1000, size=n)
        create = step % 2 == 0
        table.scatter(0, pages, values, create=create)
        for page, value in zip(pages.tolist(), values.tolist()):
            if create or page >> 8 in {k >> 8 for k in model}:
                model[page] = value
        probe = rng.choice(universe, size=n, replace=False)
        assert table.gather(0, probe).tolist() == [
            model.get(page, 0) for page in probe.tolist()]
    table.scatter(1, universe, 7)            # scalar, existing chunks only
    assert table.gather(1, universe).tolist() == [
        7 if page >> 8 in table.chunks else 0 for page in universe.tolist()]
