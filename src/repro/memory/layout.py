"""Address arithmetic for the shared global address space.

Samhita "divides the shared global address space into pages" and uses "cache
lines of multiple pages" to exploit spatial locality. All layout decisions
live here so the rest of the system never does raw modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MemoryError_


@dataclass(frozen=True)
class MemoryLayout:
    """Page/line geometry of the global address space."""

    page_bytes: int = 4096
    pages_per_line: int = 4

    def __post_init__(self):
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise MemoryError_(f"page_bytes must be a power of two, got {self.page_bytes}")
        if self.pages_per_line < 1:
            raise MemoryError_("pages_per_line must be >= 1")

    @property
    def line_bytes(self) -> int:
        return self.page_bytes * self.pages_per_line

    # -- pages ----------------------------------------------------------
    def page_of(self, addr: int) -> int:
        self._check_addr(addr)
        return addr // self.page_bytes

    def page_offset(self, addr: int) -> int:
        self._check_addr(addr)
        return addr % self.page_bytes

    def page_addr(self, page: int) -> int:
        return page * self.page_bytes

    def pages_spanning(self, addr: int, nbytes: int) -> range:
        """Pages touched by the byte range [addr, addr + nbytes)."""
        self._check_addr(addr)
        if nbytes < 0:
            raise MemoryError_(f"negative span: {nbytes}")
        if nbytes == 0:
            return range(0)
        first = addr // self.page_bytes
        last = (addr + nbytes - 1) // self.page_bytes
        return range(first, last + 1)

    def page_slices(self, addr: int, nbytes: int) -> list[tuple[int, int, int]]:
        """``(page, start, end)`` per page of [addr, addr + nbytes), with
        ``[start, end)`` the touched bytes as offsets into that page."""
        page_bytes = self.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        slices = [(page, 0, page_bytes) for page in range(first, last + 1)]
        slices[0] = (first, addr - first * page_bytes, page_bytes)
        slices[-1] = (last, slices[-1][1], addr + nbytes - last * page_bytes)
        return slices

    # -- lines ----------------------------------------------------------
    def line_of_page(self, page: int) -> int:
        return page // self.pages_per_line

    def line_of_addr(self, addr: int) -> int:
        return self.line_of_page(self.page_of(addr))

    def line_pages(self, line: int) -> range:
        first = line * self.pages_per_line
        return range(first, first + self.pages_per_line)

    def lines_of(self, pages: np.ndarray) -> list[int]:
        """The distinct lines a page vector (in any order) touches,
        ascending."""
        lines = pages // self.pages_per_line
        if lines.size >= 64:
            lines.sort()
            lines = lines[np.concatenate(([True], lines[1:] != lines[:-1]))]
            return lines.tolist()
        return sorted(set(lines.tolist()))

    # -- alignment ------------------------------------------------------
    def align_up(self, nbytes: int) -> int:
        """Round a size up to a whole number of pages."""
        if nbytes < 0:
            raise MemoryError_(f"negative size: {nbytes}")
        pages = (nbytes + self.page_bytes - 1) // self.page_bytes
        return pages * self.page_bytes

    def _check_addr(self, addr: int) -> None:
        if addr < 0:
            raise MemoryError_(f"negative address: {addr:#x}")
