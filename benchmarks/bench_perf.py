"""Wall-clock benchmark + regression gate for the hot-path work.

Times the *smoke campaign* (fig03 + fig12 at --quick scale) in three
configurations and emits ``BENCH_perf.json``:

* ``after_serial``        -- plain in-process run (best-of-N wall clock),
* ``after_workers4_cold`` -- ``--workers 4`` pool + empty result cache,
* ``after_workers4_cached`` -- same executor re-run against the warm cache.

Each configuration is compared against ``BASELINE_SEED``, the same smoke
campaign measured at the seed commit (pre-optimization code), so the JSON
records before/after honestly. A serial per-cell pass additionally records
wall clock, simulated-events/sec and software-cache-ops/sec for every cell.

Run with::

    PYTHONPATH=src python benchmarks/bench_perf.py            # writes BENCH_perf.json
    PYTHONPATH=src python benchmarks/bench_perf.py --best-of 1 --out /tmp/b.json

``tools/bench_report.py`` renders the JSON and implements the CI gate.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pathlib
import platform
import pstats
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import figures  # noqa: E402
from repro.experiments.__main__ import (  # noqa: E402
    _QUICK_KWARGS, sync_sweep_system)
from repro.experiments.parallel import (  # noqa: E402
    Executor, ResultCache, activate, cell_key)

#: The smoke campaign: one microbenchmark figure + one application figure,
#: both at --quick scale. Small enough for CI, large enough to exercise the
#: DES hot paths (the 16-core Jacobi cell alone schedules ~1M events).
SMOKE_FIGURES = ("fig03", "fig12")

#: Smoke-campaign wall clock measured at the seed commit (cf352c7, the
#: pre-optimization code), same host, best of 3: 6.682 / 6.805 / 6.923 s.
#: This is the "before" side of the before/after record.
BASELINE_SEED = {
    "wall_s": 6.682,
    "best_of": 3,
    "commit": "cf352c7",
    "note": "same smoke campaign (fig03+fig12 --quick), serial, seed code",
    # Scheduled-event count of the same campaign with every resumption
    # sent through the event queue (recorded while a switch could still
    # restore that shape); the seed code schedules at least this many. The
    # --check-events gate in tools/bench_report.py compares against this.
    "events_scheduled": 557_529,
    # Modeled round-trip request messages on the fig12 smoke cells under
    # the per-operation protocol (one request per line / recall / put;
    # recorded at PR 15, the last tree that could run it). The
    # --check-batched-rt gate compares against this.
    "rt_requests": 96_257,
}


#: Trajectory fingerprint of the canonical functional Jacobi cell at the
#: PR 9 commit (de37097), captured with the same ``_jacobi_fingerprint``
#: shape. The default configuration must reproduce this dict exactly -- the
#: --check-off-state gate in tools/bench_report.py compares them.
PR9_FINGERPRINT = {
    "grid_sha256": ("2b3e7a116b07bdfd16475c9584b7b7e1"
                    "8394155fdfc4cc67038985f54f9e34b2"),
    "gdiff": 7.8125,
    "elapsed": 0.0008569759499999993,
    "events_scheduled": 446,
    "cache_counters": {
        "diff_bytes": 0,
        "diffs_taken": 136,
        "fine_grain_bytes": 480,
        "installs": 228,
        "invalidations": 122,
        "page_touches": 489,
        "read_bytes": 848096,
        "reads": 49,
        "twins_created": 160,
        "write_bytes": 897144,
        "writes": 37,
    },
}


def run_smoke(executor=None) -> float:
    """Run the smoke campaign once; returns wall-clock seconds."""
    t0 = time.perf_counter()
    with activate(executor):
        for name in SMOKE_FIGURES:
            figures.FIGURES[name](**_QUICK_KWARGS[name])
    return time.perf_counter() - t0


def best_of(n: int, fn, *args) -> tuple[float, list[float]]:
    runs = [fn(*args) for _ in range(n)]
    return min(runs), runs


class _RecordingExecutor(Executor):
    """Serial executor that records per-cell wall clock and throughput."""

    def __init__(self):
        super().__init__(workers=0, cache=None)
        self.cells: list[dict] = []
        self._seen: dict[str, dict] = {}

    def map(self, specs):
        out = []
        for spec in specs:
            key = cell_key(spec)
            rec = self._seen.get(key)
            if rec is None:
                t0 = time.perf_counter()
                result = super().map([spec])[0]
                wall = time.perf_counter() - t0
                engine_stats = result.stats.get("engine", {})
                events = engine_stats.get("scheduled_events", 0)
                coalesced = engine_stats.get("coalesced_events", 0)
                caches = result.stats.get("caches", {})
                cache_ops = caches.get("reads", 0) + caches.get("writes", 0)
                rec = {
                    "cell": f"{spec.backend}-{spec.cores}",
                    "backend": spec.backend,
                    "cores": spec.cores,
                    "workload": spec.spawn_fn.__name__,
                    "wall_s": round(wall, 4),
                    "events": events,
                    "events_coalesced": coalesced,
                    "events_per_sec": round(events / wall) if wall else 0,
                    "cache_ops": cache_ops,
                    "cache_ops_per_sec": round(cache_ops / wall) if wall else 0,
                    "_result": result,
                }
                self._seen[key] = rec
                self.cells.append({k: v for k, v in rec.items() if k != "_result"})
            out.append(rec["_result"])
        return out


def measure_cells() -> list[dict]:
    """One instrumented serial pass: per-cell wall clock + throughput."""
    recorder = _RecordingExecutor()
    with activate(recorder):
        for name in SMOKE_FIGURES:
            figures.FIGURES[name](**_QUICK_KWARGS[name])
            for cell in recorder.cells:
                cell.setdefault("figure", name)
    return recorder.cells


def _jacobi_fingerprint(config) -> dict:
    """Canonical functional Jacobi cell -> trajectory fingerprint."""
    import hashlib

    from repro.experiments.harness import run_workload_direct
    from repro.kernels.jacobi import JacobiParams, spawn_jacobi

    params = JacobiParams(rows=64, cols=256, iterations=3,
                          collect_result=True)
    result = run_workload_direct("samhita", 4, spawn_jacobi, params,
                                 functional=True, config=config)
    gdiff, grid = result.threads[0].value
    return {
        "grid_sha256": hashlib.sha256(grid.tobytes()).hexdigest(),
        "gdiff": gdiff,
        "elapsed": result.elapsed,
        "events_scheduled": result.stats["engine"]["scheduled_events"],
        "cache_counters": dict(sorted(result.stats["caches"].items())),
    }, result


def off_state(default: dict) -> dict:
    """The default build against its recorded pin, and against the two
    configurations that arm a subsystem with nothing for it to do: an
    all-zero fault plan (injector constructed, silent) and ``fencing=True``
    on a healthy run (the fence is bookkeeping until a failover mints an
    epoch). The --check-off-state gate requires all four fingerprints to be
    bit-identical. (Every other off-by-default field is *at* its default in
    ``SamhitaConfig()``, so there is nothing else to compare.)"""
    from repro.core.params import SamhitaConfig
    from repro.faults import FaultPlan

    silent, _ = _jacobi_fingerprint(SamhitaConfig(faults=FaultPlan(seed=0)))
    fenced, _ = _jacobi_fingerprint(SamhitaConfig(fencing=True))
    return {"default": default, "pr9_fingerprint": PR9_FINGERPRINT,
            "injector_silent": silent, "fencing_idle": fenced}


def replication_overhead() -> dict:
    """Healthy-path cost of rf=2 vs rf=1 on a two-home machine: same data,
    extra WAL/ship/apply work and wire bytes, no failures."""
    from repro.core.params import SamhitaConfig

    base, base_result = _jacobi_fingerprint(
        SamhitaConfig(n_memory_servers=2))
    repl, repl_result = _jacobi_fingerprint(
        SamhitaConfig(n_memory_servers=2, replication_factor=2))
    counters = repl_result.stats.get("replication", {})
    return {
        "campaign": "jacobi 64x256x3 functional cell, n_memory_servers=2",
        "data_identical": (repl["grid_sha256"] == base["grid_sha256"]
                           and repl["gdiff"] == base["gdiff"]),
        "elapsed_rf1": base["elapsed"],
        "elapsed_rf2": repl["elapsed"],
        "elapsed_overhead": (round(repl["elapsed"] / base["elapsed"] - 1.0, 4)
                             if base["elapsed"] else None),
        "events_rf1": base["events_scheduled"],
        "events_rf2": repl["events_scheduled"],
        "counters": {k: counters[k] for k in sorted(counters)
                     if k.startswith(("wal_", "repl_", "replica_"))},
        "failovers": counters.get("failovers", 0),
    }


def chaos_counters(clean: dict) -> dict:
    """One seeded drop-storm cell: recovery counters + data-identity bit
    against ``clean``, the default fingerprint."""
    from repro.core.params import SamhitaConfig
    from repro.faults import drop_storm

    plan = drop_storm(11)
    faulty, result = _jacobi_fingerprint(SamhitaConfig(faults=plan))
    return {
        "plan": "drop_storm(seed=11)",
        "data_identical": (faulty["grid_sha256"] == clean["grid_sha256"]
                           and faulty["gdiff"] == clean["gdiff"]),
        "elapsed_clean": clean["elapsed"],
        "elapsed_faulty": faulty["elapsed"],
        "counters": result.stats.get("faults", {}),
    }


def _checkpoint_roundtrip() -> dict:
    """Mini barrier campaign run three ways: straight through; to a
    mid-round checkpoint whose machine is then discarded; and a fresh
    machine restored from that checkpoint replaying the rest. The final
    bytes of (1) and (3) must match -- the --check-partition-safety gate
    compares them."""
    import hashlib

    import numpy as np

    from repro.core.params import SamhitaConfig
    from repro.core.system import SamhitaSystem

    n_threads, rounds, cut_round = 4, 4, 2
    slice_bytes = 1024 * 8
    nbytes = n_threads * slice_bytes

    def config(interval):
        return SamhitaConfig(n_memory_servers=2, replication_factor=2,
                             fencing=True, checkpoint_interval=interval)

    def campaign(system, tids, state, start, end):
        bar = system.create_barrier(len(tids))

        def body(i, tid):
            if i == 0:
                state["addr"] = yield from system.malloc(tid, nbytes,
                                                        shared=True)
            yield from system.barrier_wait(tid, bar)
            addr = state["addr"] + i * slice_bytes
            for r in range(start, end):
                data = yield from system.mem_read(tid, addr, slice_bytes)
                arr = np.frombuffer(data, dtype=np.float64).copy()
                arr = arr * 1.25 + float((r + 1) * (i + 1))
                yield from system.mem_write(tid, addr, slice_bytes,
                                            arr.view(np.uint8))
                yield from system.barrier_wait(tid, bar)
            if i == 0:
                state["final"] = bytes(
                    (yield from system.mem_read(tid, state["addr"], nbytes)))

        for i, tid in enumerate(tids):
            system.process(body(i, tid), name=f"t{i}")
        system.run()

    def build(interval):
        system = SamhitaSystem.cluster(n_threads, config=config(interval))
        return system, [system.add_thread() for _ in range(n_threads)]

    straight_sys, tids = build(interval=1)
    straight: dict = {}
    campaign(straight_sys, tids, straight, 0, rounds)
    taken = straight_sys.stats.snapshot().get("checkpoints_taken", 0)

    doomed_sys, tids = build(interval=1)
    doomed: dict = {}
    campaign(doomed_sys, tids, doomed, 0, cut_round + 1)
    ckpt = doomed_sys.checkpoints.latest()

    restored_sys, tids = build(interval=0)
    restored_sys.restore_checkpoint(ckpt)
    restored: dict = {}
    campaign(restored_sys, tids, restored, cut_round + 1, rounds)

    return {
        "campaign": (f"{n_threads}-thread barrier rounds x{rounds}, "
                     f"restore after round {cut_round}"),
        "checkpoints_taken": taken,
        "checkpoint_pages": ckpt.page_count,
        "final_sha256": hashlib.sha256(straight["final"]).hexdigest(),
        "restored_sha256": hashlib.sha256(restored["final"]).hexdigest(),
        "roundtrip_identical": restored["final"] == straight["final"],
    }


def partition_safety_fingerprint() -> dict:
    """The --check-partition-safety gate's evidence:

    * a partition that severs one memory server of the fenced three-shard
      machine still produces bit-identical data, with the promotion and at
      least one fenced stale-epoch write on the record (zero stale writes
      APPLIED -- the data identity is the proof);
    * a checkpoint/restore round trip reproduces the straight-through
      final bytes.
    """
    from repro.core.params import SamhitaConfig
    from repro.faults import partition

    def fenced(faults=None):
        return SamhitaConfig(manager_shards=3, n_memory_servers=2,
                             replication_factor=2, fencing=True,
                             faults=faults)

    baseline, _ = _jacobi_fingerprint(fenced())
    plan = partition(11, ("node4",), start=4e-4, duration=3e-4)
    cut, cut_result = _jacobi_fingerprint(fenced(plan))
    membership = cut_result.stats.get("membership", {})
    return {
        "partition": {
            "plan": "partition(seed=11, ('node4',), 4e-4 +3e-4)",
            "data_identical": (cut["grid_sha256"] == baseline["grid_sha256"]
                               and cut["gdiff"] == baseline["gdiff"]),
            "elapsed_baseline": baseline["elapsed"],
            "elapsed_cut": cut["elapsed"],
            "membership": {k: membership[k] for k in sorted(membership)},
        },
        "checkpoint": _checkpoint_roundtrip(),
    }


#: Control-plane sweep points: (compute servers, manager shards). Shards
#: scale with the machine (16 compute servers per shard), which is the
#: deployment the flat-load claim is about: adding cells adds shards, and
#: the RPC load each shard absorbs stays constant.
SHARD_SWEEP = ((16, 1), (64, 4), (256, 16), (1024, 64))
SHARD_SWEEP_ROUNDS = 3
#: The sweep point whose dispatch rate ``--check-events-rate`` gates.
EVENTS_RATE_POINT = (256, 16)


def _sync_sweep_cell(n_compute: int, shards: int,
                     tree_barriers: bool) -> dict:
    """One sync-heavy cell (``sync_sweep_system``): no data-plane traffic
    at all, so ``manager_rpcs_by_shard`` measures exactly the lock/barrier
    protocol cost at this scale."""
    system = sync_sweep_system(n_compute, shards, True, tree_barriers,
                               SHARD_SWEEP_ROUNDS)
    t0 = time.perf_counter()
    system.run()
    run_wall = time.perf_counter() - t0
    engine = system.engine
    report = system.stats_report()
    rows = report["manager_rpcs_by_shard"]
    total = sum(r["requests"] for r in rows)
    return {
        "n_compute": n_compute,
        "shards": shards,
        "tree_barriers": tree_barriers,
        "elapsed": system.engine.now,
        "run_wall_s": round(run_wall, 4),
        "events_scheduled": engine.scheduled_events,
        "events_coalesced": engine.coalesced_events,
        "epochs_run": engine.epochs_run,
        "events_per_sec": (round(engine.scheduled_events / run_wall)
                           if run_wall else 0),
        "total_manager_rpcs": total,
        "per_shard_mean": round(total / shards, 2),
        "per_shard_requests": [r["requests"] for r in rows],
        "barrier_rpcs": sum(r["barrier"] for r in rows),
        "lock_rpcs": sum(r["lock"] for r in rows),
        "lock_cache_hits": report.get("lock_cache", {})
        .get("lock_cache_hits", 0),
    }


def _sweep_host_calls(n_compute: int, shards: int) -> float:
    """Host calls (cProfile total, builtins included) per thread-round of
    the tree-barrier sweep cell: the host's cost of a round, as a count."""
    system = sync_sweep_system(n_compute, shards, True, True,
                               SHARD_SWEEP_ROUNDS)
    profile = cProfile.Profile()
    profile.runcall(system.run)
    calls = sum(row[1] for row in pstats.Stats(profile).stats.values())
    return round(calls / (n_compute * SHARD_SWEEP_ROUNDS), 1)


def shard_scaling() -> dict:
    """16 -> 64 -> 256 -> 1,024 compute-server sweep of the sharded control
    plane.

    The ``--check-shard-scaling`` gate in tools/bench_report.py reads this
    block: per-shard RPC load must stay flat (<= 25% deviation) across the
    sweep, tree barriers must cut total barrier RPCs by >= 2x versus flat
    barriers at every point, and the host calls a thread-round costs (a
    second, profiled run of the tree cell) must stay under a bound, and
    flat from the first point whose tree has a cell level to the last.
    """
    sweep = []
    for n_compute, shards in SHARD_SWEEP:
        tree = _sync_sweep_cell(n_compute, shards, tree_barriers=True)
        tree["host_calls_per_thread_round"] = _sweep_host_calls(n_compute,
                                                                shards)
        flat = _sync_sweep_cell(n_compute, shards, tree_barriers=False)
        tree["flat_barrier_rpcs"] = flat["barrier_rpcs"]
        tree["barrier_rpc_reduction"] = (
            round(flat["barrier_rpcs"] / tree["barrier_rpcs"], 2)
            if tree["barrier_rpcs"] else None)
        sweep.append(tree)
    means = [cell["per_shard_mean"] for cell in sweep]
    center = sum(means) / len(means)
    return {
        "campaign": (f"sync-heavy cell ({SHARD_SWEEP_ROUNDS} rounds of "
                     "private lock + full barrier per thread), "
                     "16 compute servers per shard"),
        "sweep": sweep,
        "per_shard_mean_deviation": (
            round(max(abs(m - center) for m in means) / center, 4)
            if center else None),
    }


#: Modeled round-trip *request* categories: one fabric message per modeled
#: round trip (replies -- ``page``/``recall_diff`` -- are the same trips
#: seen from the other end and are not re-counted).
RT_REQUEST_CATEGORIES = ("fetch_req", "recall", "diff", "barrier_diff",
                         "fine_grain", "cr_page")


class _FabricSummingExecutor(Executor):
    """Serial executor summing fabric message counts over Samhita cells."""

    def __init__(self, totals: dict):
        super().__init__(workers=0, cache=None)
        self.totals = totals
        self._seen: dict[str, object] = {}

    def map(self, specs):
        out = []
        for spec in specs:
            key = cell_key(spec)
            result = self._seen.get(key)
            if result is None:
                result = super().map([spec])[0]
                self._seen[key] = result
                if spec.backend == "samhita":
                    fabric = result.stats.get("fabric", {})
                    for cat in RT_REQUEST_CATEGORIES:
                        self.totals[cat] = (self.totals.get(cat, 0)
                                            + fabric.get(f"messages.{cat}", 0))
            out.append(result)
        return out


def batched_rt_comparison(default_result) -> dict:
    """The --check-batched-rt gate's evidence: modeled round-trip request
    messages over the fig12 smoke cells, against the per-operation
    protocol's recorded total (``BASELINE_SEED["rt_requests"]``), plus the
    ``round_trips`` ledger of the canonical Jacobi cell."""
    requests: dict = {}
    with activate(_FabricSummingExecutor(requests)):
        figures.FIGURES["fig12"](**_QUICK_KWARGS["fig12"])
    requests["total"] = sum(requests.values())
    recorded = BASELINE_SEED["rt_requests"]
    return {
        "campaign": ("fig12 --quick samhita cells (modeled round-trip "
                     "request messages) + canonical jacobi cell (ledger)"),
        "request_categories": list(RT_REQUEST_CATEGORIES),
        "requests": requests,
        "requests_per_operation": recorded,
        "trip_reduction": (round(recorded / requests["total"], 2)
                           if requests["total"] else None),
        "round_trips": default_result.stats["round_trips"],
    }


def sweep_events_rate(best_of_n: int = 3) -> dict:
    """Sustained dispatch rate at the top of the shard sweep.

    Re-runs the 256-server sync-heavy cell ``best_of_n`` times and keeps
    the fastest run phase: the event count is deterministic, so only the
    wall-clock denominator jitters, and the max rate is the honest
    "sustained" figure on a shared box. The ``--check-events-rate`` gate
    in tools/bench_report.py reads this block.
    """
    n_compute, shards = EVENTS_RATE_POINT
    best: dict | None = None
    for _ in range(best_of_n):
        cell = _sync_sweep_cell(n_compute, shards, tree_barriers=True)
        if best is None or cell["events_per_sec"] > best["events_per_sec"]:
            best = cell
    assert best is not None
    return {
        "campaign": (f"sync-heavy sweep cell, {n_compute} compute servers / "
                     f"{shards} shards, run phase only, best of {best_of_n}"),
        "events_scheduled": best["events_scheduled"],
        "events_coalesced": best["events_coalesced"],
        "epochs_run": best["epochs_run"],
        "run_wall_s": best["run_wall_s"],
        "events_per_sec": best["events_per_sec"],
        "best_of": best_of_n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="output JSON path (default: ./BENCH_perf.json)")
    parser.add_argument("--best-of", type=int, default=3, metavar="N",
                        help="timed repetitions per configuration (min wins)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the workers phase "
                             "(default: min(4, cpu count))")
    args = parser.parse_args(argv)
    cpu_count = os.cpu_count()
    # Schedulable CPUs can be fewer than the physical count (container
    # affinity masks); the pool default must follow what this process can
    # actually use, and the fingerprint records both so a "cpus: 1" entry
    # from a pinned container is no longer mistaken for a 1-core host.
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = cpu_count or 1
    # Default clamps to the host: a 4-worker pool on a 1-CPU box only adds
    # fork/IPC overhead. An explicit --workers is honoured as given.
    workers = args.workers if args.workers is not None else min(4, usable)

    print(f"smoke campaign: {', '.join(SMOKE_FIGURES)} (--quick scale)")

    # The serial phase is timed FIRST, before the fingerprint and sweep
    # phases grow the interpreter's GC population -- the seed baseline was
    # measured in a fresh process, so the comparison must be too.
    print(f"after_serial: best of {args.best_of} ...")
    serial_best, serial_runs = best_of(args.best_of, run_smoke)

    print("per-cell instrumentation pass ...")
    cells = measure_cells()

    print("off-state fingerprints + chaos counters ...")
    default_fp, default_result = _jacobi_fingerprint(None)
    off = off_state(default_fp)
    chaos = chaos_counters(default_fp)

    print("rf=2 overhead ...")
    replication = replication_overhead()

    print("shard scaling sweep (16 -> 64 -> 256 -> 1,024 compute servers) ...")
    shards = shard_scaling()

    print("partition-safety cell (quorum, fencing, checkpoint) ...")
    partition_safety = partition_safety_fingerprint()

    print("batched round trips (modeled requests vs recorded) ...")
    batched_rt = batched_rt_comparison(default_result)

    print("sustained events/sec at the 256-server sweep point ...")
    rate = sweep_events_rate(best_of_n=max(args.best_of, 3))

    print(f"after_workers{workers}_cold: best of {args.best_of} ...")

    def run_cold():
        # Fresh cache every repetition: measures a genuinely cold campaign.
        return run_smoke(Executor(workers=workers, cache=ResultCache()))

    cold, cold_runs = best_of(args.best_of, run_cold)

    print(f"after_workers{workers}_cached (warm cache re-run) ...")
    # A shared persistent cache answers a repeated campaign without
    # simulating anything; measure that re-run cost.
    warm_cache = ResultCache()
    run_smoke(Executor(workers=workers, cache=warm_cache))
    warm_executor = Executor(workers=workers, cache=warm_cache)
    warm = run_smoke(warm_executor)

    seed = BASELINE_SEED["wall_s"]
    events_scheduled = sum(c["events"] for c in cells)
    events_coalesced = sum(c["events_coalesced"] for c in cells)
    seed_events = BASELINE_SEED["events_scheduled"]
    report = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": cpu_count,
            "cpus_usable": usable,
            "workers_requested": args.workers,
            "workers_effective": workers,
        },
        "smoke_figures": list(SMOKE_FIGURES),
        "baseline_seed": BASELINE_SEED,
        "events": {
            "scheduled": events_scheduled,
            "coalesced": events_coalesced,
            "scheduled_at_seed": seed_events,
            "reduction_vs_seed": round(seed_events / events_scheduled, 2)
            if events_scheduled else None,
        },
        "phases": {
            "after_serial": {
                "wall_s": round(serial_best, 3),
                "runs": [round(r, 3) for r in serial_runs],
                "speedup_vs_seed": round(seed / serial_best, 2),
            },
            f"after_workers{workers}_cold": {
                "wall_s": round(cold, 3),
                "runs": [round(r, 3) for r in cold_runs],
                "speedup_vs_seed": round(seed / cold, 2),
            },
            f"after_workers{workers}_cached": {
                "wall_s": round(warm, 3),
                # A warm cache can answer the campaign in ~no wall time;
                # a division there yields a five-digit nonsense speedup
                # (and 0.0 s would divide by zero). None renders as
                # "cached" in tools/bench_report.py.
                "speedup_vs_seed": (round(seed / warm, 1)
                                    if warm >= 0.005 else None),
                "cache_hits": warm_cache.hits,
            },
        },
        "events_rate": rate,
        "cells": cells,
        "off_state": off,
        "chaos": chaos,
        "replication": replication,
        "shard_scaling": shards,
        "partition_safety": partition_safety,
        "batched_rt": batched_rt,
        "notes": [
            f"host has {usable} schedulable CPU(s); on a single-CPU host the "
            "pool adds no parallel speedup -- gains there come from the "
            "serial fast paths and the result cache (dedup + warm re-runs)",
            "simulated results are bit-identical across all configurations "
            "(asserted by tests/experiments/test_parallel_determinism.py)",
        ],
    }

    out = pathlib.Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    print(f"  seed baseline        {seed:7.3f} s")
    print(f"  after_serial         {serial_best:7.3f} s  "
          f"({seed / serial_best:.2f}x vs seed)")
    print(f"  workers{workers} cold        {cold:7.3f} s  "
          f"({seed / cold:.2f}x vs seed)")
    warm_vs = f"({seed / warm:.0f}x vs seed)" if warm >= 0.005 else "(cached)"
    print(f"  workers{workers} warm cache  {warm:7.3f} s  {warm_vs}")
    print(f"  scheduled events     {events_scheduled:,} "
          f"({seed_events / events_scheduled:.2f}x fewer than seed; "
          f"{events_coalesced:,} coalesced)")
    ok = all(off[k] == default_fp for k in
             ("pr9_fingerprint", "injector_silent", "fencing_idle"))
    print(f"  off-state identity   {'bit-identical' if ok else 'DIVERGED'}")
    print(f"  chaos drop_storm     data_identical={chaos['data_identical']} "
          f"retransmits={chaos['counters'].get('retransmits', 0)}")
    overhead = replication["elapsed_overhead"]
    print(f"  rf=2 healthy path    data_identical="
          f"{replication['data_identical']} "
          f"elapsed +{overhead * 100:.1f}% "
          f"ships={replication['counters'].get('repl_ships', 0)}")
    dev = shards["per_shard_mean_deviation"]
    last = shards["sweep"][-1]
    print(f"  shard sweep          per-shard load dev {dev * 100:.1f}% "
          f"across {'/'.join(str(n) for n, _ in SHARD_SWEEP)} servers; "
          f"barriers -{last['barrier_rpc_reduction']:.0f}x at "
          f"{last['n_compute']}; host calls per thread-round "
          + " / ".join(str(c["host_calls_per_thread_round"])
                       for c in shards["sweep"]))
    print(f"  events/sec (256)     {rate['events_per_sec']:,}/s sustained "
          f"({rate['events_scheduled']:,} events in "
          f"{rate['run_wall_s']:.3f} s run phase)")
    print(f"  batched round trips  requests "
          f"{batched_rt['requests_per_operation']:,} (per-operation, "
          f"recorded) -> {batched_rt['requests']['total']:,} "
          f"(-{batched_rt['trip_reduction']:.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
