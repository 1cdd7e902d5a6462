"""Determinism guarantees for the parallel campaign runner.

Two separate promises are pinned here:

1. *Serial == parallel*: routing a figure through the pool-backed executor
   (workers + result cache) yields exactly the same (cores, metric) points
   as the plain in-process path, for every series of the figure. The
   executor collects ``pool.map`` results in submission order and cells
   share no state, so this must hold bit-for-bit.

2. *Pre == post optimization*: wall-clock rework must not move a single
   simulated timestamp. ``golden_metrics.json`` holds every series point
   of fig03/fig11/fig12 (--quick scale) plus a functional Jacobi data
   capture under the default machine; the current code must reproduce
   them exactly (JSON round-trip on both sides kills float-repr
   ambiguity).
"""

import hashlib
import json
import pathlib

import pytest

from repro.core.params import SamhitaConfig
from repro.experiments import figures
from repro.experiments.__main__ import _QUICK_KWARGS
from repro.experiments.harness import run_workload_direct
from repro.experiments.parallel import (
    CellSpec, Executor, ResultCache, activate, cell_key, make_executor)
from repro.faults import FaultPlan
from repro.kernels.jacobi import JacobiParams, spawn_jacobi

GOLDEN = pathlib.Path(__file__).parent / "golden_metrics.json"


def points_of(fr):
    """Canonical JSON-safe snapshot of every series of a figure."""
    raw = {s.label: [[x, y] for (x, y) in s.points]
           for s in fr.series.values()}
    return json.loads(json.dumps(raw))


class TestSerialEqualsParallel:
    @pytest.mark.parametrize("name", ["fig03", "fig11"])
    def test_pool_backed_sweep_matches_serial(self, name):
        serial = points_of(figures.FIGURES[name](**_QUICK_KWARGS[name]))
        with activate(make_executor(workers=2)):
            pooled = points_of(figures.FIGURES[name](**_QUICK_KWARGS[name]))
        assert pooled == serial

    def test_cache_only_executor_matches_serial(self):
        # workers=0 exercises the cache/dedup layer without a pool.
        quick = _QUICK_KWARGS["fig03"]
        serial = points_of(figures.fig03(**quick))
        executor = Executor(workers=0, cache=ResultCache())
        with activate(executor):
            cached = points_of(figures.fig03(**quick))
            assert cached == serial
            # A second pass over the same figure must be served entirely
            # from the cache and reproduce the same points.
            hits_before = executor.cache.hits
            repeat = points_of(figures.fig03(**quick))
        assert repeat == serial
        assert executor.cache.hits > hits_before


class TestCellKey:
    def test_distinct_cells_hash_apart(self):
        a = CellSpec("samhita", 4, figures.spawn_microbench, ("p",))
        b = CellSpec("samhita", 8, figures.spawn_microbench, ("p",))
        c = CellSpec("pthreads", 4, figures.spawn_microbench, ("p",))
        keys = {cell_key(a), cell_key(b), cell_key(c)}
        assert len(keys) == 3

    def test_identical_cells_hash_together(self):
        a = CellSpec("samhita", 4, figures.spawn_microbench, ("p",))
        b = CellSpec("samhita", 4, figures.spawn_microbench, ("p",))
        assert cell_key(a) == cell_key(b)


def jacobi_functional_snapshot(config=None) -> tuple[dict, dict]:
    """Canonical JSON-safe capture of one functional-mode Jacobi cell, and
    the run's stats.

    Unlike the figure snapshots (timing-only), this pins the *data plane*:
    the converged residual, a hash of the final grid bytes, the per-thread
    clocks, and the software-cache counters. A coalescing change that kept
    the clocks right but corrupted data (a dropped diff, a skipped twin)
    fails here.
    """
    params = JacobiParams(rows=64, cols=256, iterations=3, collect_result=True)
    result = run_workload_direct("samhita", 4, spawn_jacobi, params,
                                 functional=True, config=config)
    threads = {}
    for tid, tr in sorted(result.threads.items()):
        value = tr.value
        if isinstance(value, tuple):  # thread 0: (residual, final grid)
            gdiff, grid = value
            rec = {"gdiff": gdiff,
                   "grid_sha256": hashlib.sha256(grid.tobytes()).hexdigest()}
        else:
            rec = {"gdiff": value}
        rec["compute"] = tr.clock.compute
        rec["sync"] = tr.clock.sync
        threads[str(tid)] = rec
    caches = result.stats["caches"]
    counter_keys = ["reads", "writes", "read_bytes", "write_bytes",
                    "page_touches", "installs", "twins_created",
                    "diffs_taken"]
    snap = {
        "params": {"rows": 64, "cols": 256, "iterations": 3},
        "n_threads": 4,
        "elapsed": result.elapsed,
        "threads": threads,
        "cache_counters": {k: caches.get(k, 0) for k in counter_keys},
    }
    return json.loads(json.dumps(snap)), result.stats


class TestGoldenMetrics:
    """Simulated results must be bit-identical to the pre-optimization seed."""

    golden = json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("name", sorted(set(golden) & set(_QUICK_KWARGS)))
    def test_matches_seed_capture(self, name):
        got = points_of(figures.FIGURES[name](**_QUICK_KWARGS[name]))
        assert got == self.golden[name]

    @pytest.mark.parametrize("config", [
        None, SamhitaConfig(faults=FaultPlan(seed=0))],
        ids=["default", "silent_injector"])
    def test_jacobi_functional_matches_seed_capture(self, config):
        """The default build, and the one that arms the fault subsystem
        with nothing for it to do (an all-zero fault plan), both
        reproduce the capture exactly. The counts
        below are the same cell's, pinned where the golden file has no
        field: one resumption sent through the heap, one batched trip split
        per line, or one message from an idle subsystem moves them."""
        snap, stats = jacobi_functional_snapshot(config)
        assert snap == self.golden["jacobi_functional"]
        assert stats["engine"]["scheduled_events"] == 446
        caches, trips = stats["caches"], stats["round_trips"]
        assert (caches["diff_bytes"], caches["fine_grain_bytes"],
                caches["invalidations"]) == (0, 480, 122)
        assert (trips["trips"], trips["lines"],
                trips["recall_trips"]) == (66, 113, 23)
