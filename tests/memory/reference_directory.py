"""The dict-of-sets page directory, kept as the oracle of the owner column.

This is the directory ``repro.memory.directory`` shipped before ownership
moved into a :class:`~repro.memory.pagetable.PageTable` column: one dict
entry per owned page, one Python set per shared page. The hypothesis state
machine in ``tests/property/test_directory_equivalence.py`` drives it and
the real directory (plain and sharded) with the same operations.
"""

from __future__ import annotations

from collections import Counter


class ReferenceDirectory:
    def __init__(self):
        self._owner: dict[int, int] = {}
        self._sharers: dict[int, set[int]] = {}
        self.counters: Counter = Counter()

    # -- sharers ---------------------------------------------------------
    def add_sharer(self, page: int, thread_id: int) -> None:
        self._sharers.setdefault(page, set()).add(thread_id)

    def add_sharers(self, pages, thread_id: int) -> None:
        for page in pages:
            self.add_sharer(page, thread_id)

    def remove_sharer(self, page: int, thread_id: int) -> None:
        sharers = self._sharers.get(page)
        if sharers is not None:
            sharers.discard(thread_id)
            if not sharers:
                del self._sharers[page]

    def sharers_of(self, page: int) -> set[int]:
        return set(self._sharers.get(page, ()))

    # -- owners ----------------------------------------------------------
    def record_owner(self, page: int, thread_id: int) -> None:
        self._owner[page] = thread_id
        self.counters["owners_recorded"] += 1

    def record_owners(self, pages, thread_ids) -> None:
        """``thread_ids``: one id, or a sequence aligned with ``pages``."""
        pages = list(pages)
        if isinstance(thread_ids, int):
            thread_ids = [thread_ids] * len(pages)
        self._owner.update(zip(pages, thread_ids))
        self.counters["owners_recorded"] += len(pages)

    def owner_of(self, page: int) -> int | None:
        return self._owner.get(page)

    def owners_of(self, pages, but: int | None = None) -> list[int]:
        owners = [self._owner.get(page, -1) for page in pages]
        return [-1 if owner == but else owner for owner in owners]

    def clear_owner(self, page: int) -> None:
        if self._owner.pop(page, None) is not None:
            self.counters["owners_cleared"] += 1

    def clear_owners(self, pages) -> None:
        for page in pages:
            self.clear_owner(page)

    def owned_by(self, thread_id: int | None = None) -> list[int]:
        return sorted(p for p, t in self._owner.items()
                      if thread_id is None or t == thread_id)

    def __len__(self) -> int:
        return len(self._owner)

    def __contains__(self, page: int) -> bool:
        return page in self._owner
