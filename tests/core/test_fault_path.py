"""The vector fault path: one residency scan per attempt, and the same
events as the per-line scan it replaced."""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem, rtbatch
from repro.experiments.harness import run_workload_direct
from repro.kernels import (Allocation, JacobiParams, MicrobenchParams,
                           spawn_jacobi, spawn_microbench)
from tests.core import reference_fault_scan
from tests.core.conftest import run_threads

PAGE = 4096


def _system_with_region(n_pages: int):
    system = SamhitaSystem.cluster(n_threads=2)
    tids = [system.add_thread(), system.add_thread()]
    addr = {}

    def body():
        addr["base"] = yield from system.malloc(tids[0], n_pages * PAGE,
                                                shared=True)

    run_threads(system, [body()])
    return system, tids[0], addr["base"]


def _spy(monkeypatch, obj, name):
    calls = []
    real = getattr(obj, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, wrapper)
    return calls


class TestEnsureResident:
    def test_a_fault_scans_residency_once(self, monkeypatch):
        system, tid, base = _system_with_region(64)
        cache = system.cache_of(tid)
        cs = system.compute_server_of(tid)
        scans = _spy(monkeypatch, cache, "missing_in")
        faults = _spy(monkeypatch, rtbatch, "fault_lines_batched")
        run_threads(system, [cs.ensure_resident(tid, base, 40 * PAGE)])
        assert cache.span_resident(base, 40 * PAGE)
        first = base // PAGE
        # The attempt scans and faults; its installs leave the span
        # resident, which a residency check (no scan) sees.
        assert [args for args in scans if args == (first, first + 40)] == [
            (first, first + 40)]
        assert len(faults) == 1
        assert faults[0][2].tolist() == list(range(first, first + 40))

    def test_a_resident_span_touches_neither_scan_nor_directory(
            self, monkeypatch):
        system, tid, base = _system_with_region(16)
        cs = system.compute_server_of(tid)
        run_threads(system, [cs.ensure_resident(tid, base, 16 * PAGE)])

        def boom(*args, **kwargs):
            raise AssertionError("a hit must not get this far")

        monkeypatch.setattr(system.cache_of(tid), "missing_in", boom)
        monkeypatch.setattr(system.directory, "owners_of", boom)
        monkeypatch.setattr(system.directory, "owner_of", boom)
        assert cs.ensure_resident(tid, base + PAGE, 9 * PAGE) == ()  # DONE

    def test_a_voided_attempt_scans_again(self, monkeypatch):
        """The retry loop's contract: whatever an attempt installed may be
        gone by the time it returns (a barrier invalidation, an IVY
        upgrade), so the next attempt must look again, not reuse the scan."""
        system, tid, base = _system_with_region(16)
        cache = system.cache_of(tid)
        cs = system.compute_server_of(tid)
        first = base // PAGE
        handed = _spy(monkeypatch, rtbatch, "fault_lines_batched")
        end_fetch = cache.end_fetch

        def voided_once(token):
            end_fetch(token)
            if len(handed) == 1:  # the first attempt's installs are done
                cache.invalidate([first + 2, first + 3])

        monkeypatch.setattr(cache, "end_fetch", voided_once)
        scans = _spy(monkeypatch, cache, "missing_in")
        run_threads(system, [cs.ensure_resident(tid, base, 8 * PAGE)])
        assert cache.span_resident(base, 8 * PAGE)
        assert [args[2].tolist() for args in handed] == [
            list(range(first, first + 8)), [first + 2, first + 3]]
        assert len([a for a in scans if a == (first, first + 8)]) == 2
        assert cs.stats.get("fetch_requests") == 2

    def test_line_tails_outside_the_span_do_not_keep_it_faulting(self):
        # 6 pages allocated: the second line's tail (2 pages) is outside
        # any allocation and never becomes resident; the span is done
        # when *its* pages are.
        system, tid, base = _system_with_region(6)
        cs = system.compute_server_of(tid)
        run_threads(system, [cs.ensure_resident(tid, base, 6 * PAGE)])
        assert cs.stats.get("pages_fetched") == 6
        assert cs.stats.get("fetch_requests") == 1


class TestAllocatedOnly:
    def test_cuts_at_region_ends_and_drops_tails(self):
        system, tid, base = _system_with_region(6)
        cs = system.compute_server_of(tid)
        first = base // PAGE
        inside = np.arange(first, first + 6)
        # One lookup on the bounds, no copy.
        assert cs._allocated_only(inside, first, first + 6) is inside
        assert cs._allocated_only(inside, first - 2, first + 8).tolist() == (
            inside.tolist())
        tails = np.arange(first - 2, first + 9)
        kept = cs._allocated_only(tails, first - 2, first + 9).tolist()
        allocated = system.allocator.allocated_span
        assert kept == [p for p in tails.tolist() if allocated(p)]
        assert set(inside.tolist()) <= set(kept)
        nothing = np.array([first + 1000], dtype=np.int64)
        assert cs._allocated_only(nothing, first + 1000,
                                  first + 1001).size == 0


def _outcome(result):
    return result.elapsed, result.stats


@pytest.mark.parametrize("config, spawn, params, cores", [
    (None, spawn_jacobi, JacobiParams(rows=128, cols=256, iterations=3), 4),
    # Striped homes: an adjacent-line rider travels to another home than
    # its demand line, on a trip of its own.
    (SamhitaConfig(n_memory_servers=2), spawn_microbench,
     MicrobenchParams(N=5, M=3, S=4, allocation=Allocation.GLOBAL_STRIDED),
     8),
    (SamhitaConfig(cache_capacity_pages=48), spawn_microbench,
     MicrobenchParams(N=3, M=2, S=64, allocation=Allocation.LOCAL), 4),
], ids=["jacobi", "strided-2homes", "evicting"])
def test_same_run_as_the_per_line_scan(monkeypatch, config, spawn, params,
                                       cores):
    shipped = run_workload_direct("samhita", cores, spawn, params,
                                  functional=False, config=config)
    monkeypatch.setattr(rtbatch, "fault_lines_batched",
                        reference_fault_scan.fault_lines_batched)
    reference = run_workload_direct("samhita", cores, spawn, params,
                                    functional=False, config=config)
    assert _outcome(shipped) == _outcome(reference)
    assert shipped.stats["compute_servers"]["pages_fetched"] > 0


@pytest.mark.parametrize("functional", [False, True])
def test_only_ivy_keeps_sharer_lists(functional):
    """Sharer lists have one reader, the IVY upgrade path; a RegC run
    serves every fetch without registering anybody."""
    from repro.runtime import Runtime
    params = MicrobenchParams(N=3, M=2, S=2, allocation=Allocation.GLOBAL)
    sharers = {}
    for coherence in ("regc", "ivy"):
        rt = Runtime("samhita", n_threads=4, config=SamhitaConfig(
            coherence=coherence, functional=functional))
        spawn_microbench(rt, params)
        result = rt.run()
        assert result.stats["memory_servers"]["pages_served"] > 0
        sharers[coherence] = dict(rt.backend.system.directory._sharers)
        rt.backend.dispose()
    assert not sharers["regc"]
    assert sharers["ivy"]
