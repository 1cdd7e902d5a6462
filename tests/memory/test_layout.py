"""Tests for address-space layout arithmetic."""

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.memory import MemoryLayout

L = MemoryLayout(page_bytes=4096, pages_per_line=4)


class TestPages:
    def test_page_of_and_offset(self):
        assert L.page_of(0) == 0
        assert L.page_of(4095) == 0
        assert L.page_of(4096) == 1
        assert L.page_offset(4097) == 1

    def test_page_addr_roundtrip(self):
        for page in (0, 1, 7, 1000):
            assert L.page_of(L.page_addr(page)) == page

    def test_pages_spanning_exact_page(self):
        assert list(L.pages_spanning(0, 4096)) == [0]

    def test_pages_spanning_crossing_boundary(self):
        assert list(L.pages_spanning(4000, 200)) == [0, 1]

    def test_pages_spanning_multi(self):
        assert list(L.pages_spanning(0, 3 * 4096 + 1)) == [0, 1, 2, 3]

    def test_zero_span_is_empty(self):
        assert list(L.pages_spanning(123, 0)) == []

    def test_negative_rejected(self):
        with pytest.raises(MemoryError_):
            L.page_of(-1)
        with pytest.raises(MemoryError_):
            L.pages_spanning(0, -1)


class TestLines:
    def test_line_of_page(self):
        assert L.line_of_page(0) == 0
        assert L.line_of_page(3) == 0
        assert L.line_of_page(4) == 1

    def test_line_pages(self):
        assert list(L.line_pages(1)) == [4, 5, 6, 7]

    def test_line_bytes(self):
        assert L.line_bytes == 16384

    def test_lines_spanning(self):
        # The lines a byte range touches are the lines of its pages.
        def spanning(addr, nbytes):
            return L.lines_of(np.asarray(L.pages_spanning(addr, nbytes)))

        assert spanning(0, 4096) == [0]
        assert spanning(0, L.line_bytes + 1) == [0, 1]

    def test_lines_of_a_page_vector(self):
        # Any order, duplicates of a line collapse, ascending result; both
        # sides of the few-lines shortcut give the same answer.
        for pages in ([9, 1, 2, 8, 40], list(range(3, 300, 2))[::-1],
                      list(range(100, 420)), [], [7]):
            vector = np.array(pages, dtype=np.int64)
            want = sorted({p // 4 for p in pages})
            assert L.lines_of(vector) == want
            assert vector.tolist() == pages   # the input is left alone

    def test_single_page_lines(self):
        layout = MemoryLayout(page_bytes=4096, pages_per_line=1)
        assert layout.line_bytes == 4096
        assert layout.line_of_addr(8192) == 2


class TestValidation:
    def test_align_up(self):
        assert L.align_up(0) == 0
        assert L.align_up(1) == 4096
        assert L.align_up(4096) == 4096
        assert L.align_up(4097) == 8192

    def test_non_power_of_two_page_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryLayout(page_bytes=1000)

    def test_zero_pages_per_line_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryLayout(pages_per_line=0)
