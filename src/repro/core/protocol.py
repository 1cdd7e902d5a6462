"""Wire-format size accounting for the Samhita protocol.

The simulator exchanges Python objects directly, but every message charges
the fabric for a realistic byte count. This module centralizes those counts
so compute/sync cost is consistent everywhere (and easy to audit).
"""

from __future__ import annotations

from repro.interconnect.scl import CONTROL_BYTES

#: Bytes per page identifier in notice / invalidate / flush lists.
PAGE_ID_BYTES = 8


def notice_message_bytes(n_pages: int) -> int:
    """Barrier-arrival message: header plus the write-notice list."""
    return CONTROL_BYTES + PAGE_ID_BYTES * n_pages


def directive_message_bytes(n_invalidate: int, n_flush: int) -> int:
    """Barrier directive from the manager: invalidate + flush page lists."""
    return CONTROL_BYTES + PAGE_ID_BYTES * (n_invalidate + n_flush)


def directive_group_bytes(n_threads: int) -> int:
    """One reply carrying ``n_threads`` empty directives (a round that
    noticed no page): the sum of their :func:`directive_message_bytes`."""
    return n_threads * directive_message_bytes(0, 0)


def lock_grant_bytes(update_payload: int, n_spans: int) -> int:
    """Lock grant carrying pending fine-grained updates."""
    return CONTROL_BYTES + update_payload + PAGE_ID_BYTES * n_spans


def release_message_bytes(update_payload: int, n_spans: int) -> int:
    """Lock release shipping the store log to the manager."""
    return CONTROL_BYTES + update_payload + PAGE_ID_BYTES * n_spans


def alloc_request_bytes() -> int:
    return CONTROL_BYTES


def alloc_reply_bytes() -> int:
    return CONTROL_BYTES
