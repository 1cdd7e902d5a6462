"""The chunked struct-of-arrays under the cache and the backing store."""

import numpy as np

from repro.memory.pagetable import CHUNK_PAGES, PageTable


def test_chunks_appear_on_first_touch_only():
    table = PageTable((np.int64, list, None))
    assert table.chunks == {}
    cols = table.chunk(3)
    assert cols[0].shape == (CHUNK_PAGES,) and not cols[0].any()
    assert cols[1] == [None] * CHUNK_PAGES and cols[2] is None
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
