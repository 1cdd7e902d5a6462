"""Property tests: store logs reconstruct exactly the bytes they recorded;
the batch forms of the write-ahead log and of the home merge equal a loop
of their one-diff forms."""

from itertools import repeat

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import BackingStore, MemoryLayout, PageDiff, StoreLog
from repro.memory.backing import DATA, VERSION
from repro.resilience.wal import ReplicationLog

LAYOUT = MemoryLayout(page_bytes=512, pages_per_line=2)
SPAN = 4 * 512

stores = st.lists(
    st.tuples(st.integers(0, SPAN - 33), st.integers(1, 32),
              st.integers(0, 255)),
    min_size=1, max_size=40)


@given(stores)
@settings(max_examples=120, deadline=None)
def test_page_diffs_reconstruct_the_store_sequence(ops):
    log = StoreLog(LAYOUT)
    image = np.zeros(SPAN, dtype=np.uint8)
    for addr, nbytes, value in ops:
        data = np.full(nbytes, value, dtype=np.uint8)
        log.record(addr, nbytes, data)
        image[addr:addr + nbytes] = data

    rebuilt = np.zeros(SPAN, dtype=np.uint8)
    for diff in log.to_page_diffs():
        page_view = rebuilt[diff.page * 512:(diff.page + 1) * 512]
        diff.apply_to(page_view)
    assert np.array_equal(rebuilt, image)


@given(stores)
@settings(max_examples=80, deadline=None)
def test_wire_size_accounts_every_byte_plus_headers(ops):
    log = StoreLog(LAYOUT)
    total = 0
    for addr, nbytes, value in ops:
        log.record(addr, nbytes, np.full(nbytes, value, np.uint8))
        total += nbytes
    assert log.payload_bytes == total
    assert log.wire_bytes == total + len(ops) * StoreLog.ENTRY_HEADER_BYTES
    # Splitting across pages preserves total payload.
    assert sum(d.payload_bytes for d in log.to_page_diffs()) == total


@given(stores)
@settings(max_examples=60, deadline=None)
def test_diff_pages_are_sorted_and_within_bounds(ops):
    log = StoreLog(LAYOUT)
    for addr, nbytes, value in ops:
        log.record(addr, nbytes, np.full(nbytes, value, np.uint8))
    pages = [d.page for d in log.to_page_diffs()]
    assert pages == sorted(pages)
    assert all(0 <= p < SPAN // 512 for p in pages)


#: A log's operations: a store ``(addr, nbytes, value)``, or None for a clear.
log_ops = st.lists(
    st.one_of(st.none(), st.tuples(st.integers(0, SPAN - 33),
                                   st.integers(0, 32), st.integers(0, 255))),
    max_size=40)


@given(log_ops, st.booleans())
@settings(max_examples=120, deadline=None)
def test_running_totals_equal_the_sums_over_entries(ops, functional):
    log = StoreLog(LAYOUT)
    for op in ops:
        if op is None:
            log.clear()
        else:
            addr, nbytes, value = op
            log.record(addr, nbytes,
                       np.full(nbytes, value, np.uint8) if functional else None)
        assert log.payload_bytes == sum(n for _, n, _ in log.entries)
        assert log.wire_bytes == sum(
            n + StoreLog.ENTRY_HEADER_BYTES for _, n, _ in log.entries)


@given(st.integers(0, 7), st.integers(0, 511), st.integers(0, 512),
       st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_one_span_is_the_one_span_list_diff(page, start, size, functional, data):
    size = min(size, 512 - start)
    payload = (np.array(data.draw(st.lists(st.integers(0, 255), min_size=size,
                                           max_size=size)), dtype=np.uint8)
               if functional else None)
    one = PageDiff.one_span(page, start, size, payload)
    ref = PageDiff(page, [(start, payload)], [size])
    for field in ("page", "n_spans", "payload_bytes", "wire_bytes", "end",
                  "empty", "index"):
        assert getattr(one, field) == getattr(ref, field), field
    assert one.starts.tolist() == ref.starts.tolist()
    assert one.sizes.tolist() == ref.sizes.tolist()
    assert one.starts.dtype == ref.starts.dtype == np.intp
    assert one.sizes.dtype == ref.sizes.dtype == np.intp
    assert [(s, None if d is None else d.tolist()) for s, d in one.spans] == \
        [(s, None if d is None else d.tolist()) for s, d in ref.spans]
    assert (one.payload is None) == (ref.payload is None) == (not functional)
    buffers = [np.arange(512, dtype=np.uint16).astype(np.uint8) for _ in "ab"]
    one.apply_to(buffers[0])
    ref.apply_to(buffers[1])
    assert bytes(buffers[0]) == bytes(buffers[1])


# -- batches: a trip's diffs logged and merged at once -----------------------

def _diff(page, kind, fill):
    """An unchanged page's diff, an extraction-style diff (indexed) or a
    store-log one (span list)."""
    if kind == 0:
        return PageDiff.unchanged(page)
    if kind == 1:
        return PageDiff.one_span(page, 8 * (fill % 32), 4, np.full(4, fill, np.uint8))
    return PageDiff(page, spans=[(fill % 64, np.full(3, fill, np.uint8)),
                                 (fill % 64 + 2, np.full(5, fill ^ 0xFF, np.uint8))])


diff_batches = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 255)),
    max_size=12).map(lambda items: [_diff(*item) for item in items])
#: A promoted server's log holds pages of two rings: targets vary per diff,
#: and a diff whose backups are all dead is not logged at all.
target_sets = st.sets(st.integers(1, 3), max_size=3).map(sorted)


def _wal_state(wal):
    return ([(e.lsn, e.page, e.diff, sorted(e.pending)) for e in wal.entries],
            wal.stats.snapshot())


@given(st.lists(st.tuples(diff_batches, st.one_of(target_sets, st.none())),
                max_size=4), st.data())
@settings(max_examples=120, deadline=None)
def test_wal_extend_is_repeated_append(batches, data):
    batch_wal, loop_wal = ReplicationLog(0), ReplicationLog(0)
    for diffs, ring in batches:
        # After a failover every diff resolves its own ring (None); before,
        # one ring serves the whole batch.
        targets = ([data.draw(target_sets) for _ in diffs] if ring is None
                   else [ring] * len(diffs))
        last = batch_wal.extend(diffs, targets if ring is None else repeat(ring))
        entries = [loop_wal.append(d.page, d, t) for d, t in zip(diffs, targets)]
        logged = [e for e in entries if e is not None]
        assert (last is None) == (not logged)
        if logged:
            assert (last.lsn, last.page) == (logged[-1].lsn, logged[-1].page)
        assert _wal_state(batch_wal) == _wal_state(loop_wal)
    # Acks and pruning see the same log either way.
    for target in (1, 2, 3):
        batch_wal.ack(target, batch_wal.unshipped(target))
        loop_wal.ack(target, loop_wal.unshipped(target))
        assert _wal_state(batch_wal) == _wal_state(loop_wal)
    assert not len(batch_wal)


@given(diff_batches)
@settings(max_examples=120, deadline=None)
def test_apply_diffs_is_the_apply_diff_loop(diffs):
    stores = [BackingStore(LAYOUT), BackingStore(LAYOUT)]
    for store in stores:
        for page in range(6):
            store.write_range(page * 512, 512, np.full(512, page, np.uint8))
    batch, loop = stores
    batch.apply_diffs(diffs)
    for diff in diffs:
        loop.apply_diff(diff)
    assert batch.stats.snapshot() == loop.stats.snapshot()
    assert batch.stats.get("diffs_applied") == len(diffs)
    for page in range(6):
        (cols, i), (ref_cols, _) = batch.ensure(page), loop.ensure(page)
        assert bytes(cols[DATA][i]) == bytes(ref_cols[DATA][i])
        assert cols[VERSION][i] == ref_cols[VERSION][i] == 1 + sum(
            d.page == page for d in diffs)
