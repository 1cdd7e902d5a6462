"""Fine-grained store instrumentation for consistency regions.

The original system uses an LLVM pass to insert a call before every store
executed inside a consistency region, enabling "fine grain (data object
level) updates" at release time. Here the runtime's write path appends to a
:class:`StoreLog` whenever the thread is inside a consistency region -- same
observable effect, no compiler needed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryError_
from repro.memory.diff import PageDiff
from repro.memory.layout import MemoryLayout


class StoreLog:
    """Ordered log of (addr, nbytes, data) stores from one consistency region.

    ``payload_bytes`` is a running total that :meth:`record` adds to and
    :meth:`clear` zeroes: a release reads its size, it does not walk the
    log for it.
    """

    #: Wire overhead per logged store (address + length header).
    ENTRY_HEADER_BYTES = 12

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self.entries: list[tuple[int, int, np.ndarray | None]] = []
        #: Bytes stored since the last :meth:`clear`.
        self.payload_bytes = 0

    def record(self, addr: int, nbytes: int, data: np.ndarray | None) -> None:
        if nbytes < 0:
            raise MemoryError_(f"negative store size {nbytes}")
        if nbytes == 0:
            return
        if data is not None and len(data) != nbytes:
            raise MemoryError_("store data length mismatch")
        self.entries.append((addr, nbytes, data))
        self.payload_bytes += nbytes

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + self.ENTRY_HEADER_BYTES * len(self.entries)

    @property
    def empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def to_page_diffs(self) -> list[PageDiff]:
        """Convert the log to per-page diffs (applied at homes / acquirers).

        Each page's pieces stay in store order and :class:`PageDiff` replays
        them in that order, so later stores to the same bytes win. The
        common release -- one store, inside one page -- is one
        ``PageDiff.one_span``, which builds no span column.
        """
        if len(self.entries) == 1:
            addr, nbytes, data = self.entries[0]
            page, start = divmod(addr, self.layout.page_bytes)
            if start + nbytes <= self.layout.page_bytes:
                return [PageDiff.one_span(page, start, nbytes, data)]
        per_page: dict[int, tuple[list, list]] = {}
        for addr, nbytes, data in self.entries:
            consumed = 0
            for page, start, end in self.layout.page_slices(addr, nbytes):
                spans, sizes = per_page.setdefault(page, ([], []))
                chunk = end - start
                spans.append((start, None if data is None
                              else data[consumed:consumed + chunk]))
                sizes.append(chunk)
                consumed += chunk
        return [PageDiff(page, *per_page[page]) for page in sorted(per_page)]

    def clear(self) -> None:
        self.entries.clear()
        self.payload_bytes = 0
