"""Tests for the page-ownership directory."""

from repro.memory import PageDirectory


def test_record_and_lookup_owner():
    d = PageDirectory()
    d.record_owner(5, 2)
    assert d.owner_of(5) == 2
    assert 5 in d
    assert d.owner_of(6) is None


def test_reassignment_overwrites():
    d = PageDirectory()
    d.record_owner(5, 2)
    d.record_owner(5, 3)
    assert d.owner_of(5) == 3
    assert len(d) == 1


def test_clear_owner_idempotent():
    d = PageDirectory()
    d.record_owner(5, 2)
    d.clear_owner(5)
    d.clear_owner(5)
    assert d.owner_of(5) is None
    assert len(d) == 0


def test_owned_by_lists_thread_pages_sorted():
    d = PageDirectory()
    d.record_owner(9, 1)
    d.record_owner(3, 1)
    d.record_owner(7, 2)
    assert d.owned_by(1) == [3, 9]
    assert d.owned_by(2) == [7]
    assert d.owned_by(3) == []


def test_bulk_owner_methods_take_page_vectors():
    import numpy as np
    d = PageDirectory()
    pages = np.array([300, 5, 6, 7], dtype=np.int64)     # two table chunks
    d.record_owners(pages, np.array([1, 2, 2, 3], dtype=np.int64))
    assert d.owners_of(np.array([7, 8, 300, 5])).tolist() == [3, -1, 1, 2]
    # A fetch by thread 2 recalls from everyone but itself.
    assert d.owners_of(pages, but=2).tolist() == [1, -1, -1, 3]
    assert d.owned_by(2) == [5, 6] and d.owned_by() == [5, 6, 7, 300]
    d.record_owners(np.array([6, 9]), 4)                 # one id for all
    assert d.owner_of(6) == 4 and len(d) == 5
    d.clear_owners(np.array([5, 6, 1000]))               # 1000: never owned
    assert d.owned_by() == [7, 9, 300] and len(d) == 3
    assert d.stats.get("owners_recorded") == 6
    assert d.stats.get("owners_cleared") == 2
    assert PageDirectory().owners_of(pages).tolist() == [-1] * 4
