"""``PageTable.gather`` / ``scatter`` against a dict of cells.

Batches of 0-40 pages, unsorted or ascending, drawn from three adjacent
chunks and one far one, so that a batch lies in one chunk or straddles two
or three; chunks absent until a ``create`` scatter makes them; scalar and
aligned values; ``int32``, ``bool`` and ``int64`` columns. A gather reads
what the dict holds (0 where it holds nothing) and is always ``int64``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.pagetable import CHUNK_PAGES, CHUNK_SHIFT, PageTable

KINDS = (np.int32, np.bool_, np.int64)
UNIVERSE = [*range(5 * CHUNK_PAGES - 24, 7 * CHUNK_PAGES + 24), 1 << 28]
batches = st.lists(st.sampled_from(UNIVERSE), unique=True, max_size=40)
values = st.integers(-2 ** 31, 2 ** 31 - 1)


def _cell(column: int, value: int) -> int:
    return int(bool(value)) if KINDS[column] is np.bool_ else value


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gather_and_scatter_agree_with_a_dict(data):
    table = PageTable(KINDS)
    model: dict[tuple[int, int], int] = {}
    chunks: set[int] = set()
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        column = data.draw(st.integers(0, len(KINDS) - 1), label="column")
        pages = data.draw(batches, label="pages")
        if data.draw(st.booleans(), label="ascending"):
            pages.sort()
        vector = np.array(pages, dtype=np.int64)
        if data.draw(st.booleans(), label="scatter"):
            create = data.draw(st.booleans(), label="create")
            if data.draw(st.booleans(), label="scalar"):
                given_values = data.draw(values, label="value")
                stored = [given_values] * len(pages)
            else:
                stored = data.draw(st.lists(values, min_size=len(pages),
                                            max_size=len(pages)),
                                   label="values")
                given_values = np.array(stored, dtype=np.int64)
            table.scatter(column, vector, given_values, create=create)
            for page, value in zip(pages, stored):
                if create:
                    chunks.add(page >> CHUNK_SHIFT)
                if page >> CHUNK_SHIFT in chunks:
                    model[column, page] = _cell(column, value)
        got = table.gather(column, vector)
        assert got.dtype == np.int64
        assert got.tolist() == [model.get((column, page), 0)
                                for page in pages]
    assert set(table.chunks) == chunks
    everything = np.array(UNIVERSE[::-1], dtype=np.int64)
    for column in range(len(KINDS)):
        assert table.gather(column, everything).tolist() == [
            model.get((column, page), 0) for page in UNIVERSE[::-1]]
