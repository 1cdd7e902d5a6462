"""Command-line table regeneration.

Usage::

    python -m repro.experiments              # list the archived tables
    python -m repro.experiments fig03        # run + print one table
    python -m repro.experiments ablation_prefetch
    python -m repro.experiments all          # run + print every table
    python -m repro.experiments fig12 --quick   # reduced sweep (fast check)
    python -m repro.experiments verify    # every table's claim
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.report import print_figure

#: Reduced sweeps for --quick: enough points to see the shape in seconds.
_QUICK_KWARGS: dict = {
    "fig03": dict(smh_cores=(1, 4, 16), pth_cores=(1, 4), m_values=(1, 10)),
    "fig04": dict(smh_cores=(1, 4, 16), pth_cores=(1, 4), m_values=(1, 10)),
    "fig05": dict(smh_cores=(1, 4, 16), pth_cores=(1, 4), m_values=(1, 10)),
    "fig06": dict(smh_cores=(1, 4, 16), s_values=(1, 4)),
    "fig07": dict(smh_cores=(1, 4, 16), s_values=(1, 4)),
    "fig08": dict(smh_cores=(1, 4, 16), s_values=(1, 4)),
    "fig09": dict(cores=8, s_values=(1, 4)),
    "fig10": dict(cores=8, s_values=(1, 4)),
    "fig11": dict(smh_cores=(1, 4, 16), pth_cores=(1, 4)),
    "fig12": dict(smh_cores=(1, 4, 16), pth_cores=(1, 4)),
    "fig13": dict(smh_cores=(1, 4, 16), pth_cores=(1, 4)),
}


def _run_chaos(seeds=(11, 23, 47)) -> int:
    """The chaos report: Jacobi under every canonical fault schedule.

    Prints one row per (profile, seed) with the data-identity verdict and
    the recovery counters; exits non-zero if any run's final grid diverged
    from the fault-free baseline.
    """
    import hashlib

    from repro.core.params import SamhitaConfig
    from repro.experiments.harness import run_workload_direct
    from repro.experiments.report import format_chaos
    from repro.faults import (drop_storm, jitter_storm, latency_storm,
                              partition, server_outage, slow_server)
    from repro.kernels.jacobi import JacobiParams, spawn_jacobi

    params = JacobiParams(rows=64, cols=256, iterations=3,
                          collect_result=True)

    def run(config=None):
        result = run_workload_direct("samhita", 4, spawn_jacobi, params,
                                     functional=True, config=config)
        gdiff, grid = result.threads[0].value
        return (gdiff, hashlib.sha256(grid.tobytes()).hexdigest()), result

    baseline, clean = run()
    fenced_kwargs = dict(manager_shards=3, n_memory_servers=2,
                         replication_factor=2, fencing=True)
    fenced_baseline, fenced_clean = run(SamhitaConfig(**fenced_kwargs))
    grayfail_baseline, grayfail_clean = run(SamhitaConfig.grayfail())
    rows = []
    for seed in seeds:
        profiles = {
            "drop_storm": drop_storm(seed),
            "latency_storm": latency_storm(seed),
            "server_outage": server_outage(seed, "node1",
                                           start=2e-4, duration=3e-4),
        }
        for profile, plan in profiles.items():
            data, result = run(SamhitaConfig(faults=plan))
            rows.append({
                "profile": profile, "seed": seed,
                "data_identical": data == baseline,
                "elapsed": result.elapsed,
                "counters": result.stats.get("faults", {}),
            })
        # The partition profile needs the fenced machine: quorum + epochs
        # live on manager_shards>1 / rf>1 (node4 is a memory server
        # there). The severed server is declared by majority vote, its
        # backup promoted under a fresh epoch, and the row's counters
        # surface the membership bookkeeping next to the fault verdicts.
        plan = partition(seed, ("node4",), start=4e-4, duration=3e-4)
        data, result = run(SamhitaConfig(faults=plan, **fenced_kwargs))
        counters = dict(result.stats.get("faults", {}))
        counters.update(result.stats.get("membership", {}))
        rows.append({
            "profile": "partition", "seed": seed,
            "data_identical": data == baseline == fenced_baseline,
            # Normalized so the table's slowdown column stays relative to
            # THIS profile's own fault-free machine.
            "elapsed": (result.elapsed / fenced_clean.elapsed
                        * clean.elapsed),
            "counters": counters,
        })
        # The gray-failure profiles run on the replicated two-server
        # machine: a 10x slow server and a heavy-tailed jitter storm
        # change timing only.
        gray = {
            "slow_server": slow_server(seed, "node1", factor=10.0,
                                       start=2e-4, duration=1.0),
            "jitter_storm": jitter_storm(seed),
        }
        for profile, plan in gray.items():
            data, result = run(SamhitaConfig.grayfail(faults=plan))
            rows.append({
                "profile": profile, "seed": seed,
                "data_identical": data == baseline == grayfail_baseline,
                "elapsed": (result.elapsed / grayfail_clean.elapsed
                            * clean.elapsed),
                "counters": result.stats.get("faults", {}),
            })
    print(format_chaos(rows, clean.elapsed))
    return 0 if all(r["data_identical"] for r in rows) else 1


def _print_round_trips_row() -> None:
    """One live row from the ``round_trips`` stats namespace: the batched
    protocol's aggregation at a glance (canonical Jacobi cell, so the row
    costs well under a second to produce)."""
    from repro.experiments.harness import run_workload_direct
    from repro.kernels.jacobi import JacobiParams, spawn_jacobi

    params = JacobiParams(rows=64, cols=256, iterations=3)
    result = run_workload_direct("samhita", 4, spawn_jacobi, params,
                                 functional=True)
    rt = result.stats["round_trips"]
    print("===== round trips (live, canonical jacobi cell) =====")
    kinds: dict[str, int] = {}
    for per_kind in rt["by_home"].values():
        for kind, n in per_kind.items():
            kinds[kind] = kinds.get(kind, 0) + n
    kind_cells = "  ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(f"trips={rt['trips']}  lines={rt['lines']}  "
          f"lines/trip={rt['lines_per_trip_mean']}  {kind_cells}")
    print(f"lines-per-trip histogram: {rt['lines_per_trip_hist']}")


def sync_sweep_system(n_threads: int, shards: int, lock_owner_cache: bool,
                      tree_barriers: bool, rounds: int):
    """A cluster ready to ``run()`` the sync-heavy cell: every thread takes
    a private lock, holds it 1 us, releases it and meets the others at a
    full barrier, ``rounds`` times. No data-plane traffic at all, so the
    counters measure the lock/barrier protocol alone (``sync_cost`` below,
    ``tests/core/test_sync_cost.py``)."""
    from repro.core.params import SamhitaConfig
    from repro.core.system import SamhitaSystem
    from repro.sim.engine import Timeout

    system = SamhitaSystem.cluster(n_threads, config=SamhitaConfig(
        manager_shards=shards, lock_owner_cache=lock_owner_cache,
        tree_barriers=tree_barriers))
    tids = [system.add_thread() for _ in range(n_threads)]
    locks = [system.create_lock() for _ in tids]
    bar = system.create_barrier(n_threads)

    def body(tid, lock):
        for _ in range(rounds):
            yield from system.acquire_lock(tid, lock)
            yield Timeout(1e-6)
            yield from system.release_lock(tid, lock)
            yield from system.barrier_wait(tid, bar)

    for i, (tid, lock) in enumerate(zip(tids, locks)):
        system.process(body(tid, lock), name=f"t{i}")
    return system


def sync_cost(n_threads: int, shards: int, lock_owner_cache: bool,
              tree_barriers: bool, rounds: int = 6) -> tuple[float, float]:
    """The model's own price of synchronization, from counters every run
    keeps: ``(remote references per lock passage, manager barrier requests
    per round)`` of the sync-heavy cell. The first is Golab's RMR measure
    (arXiv 1109.5153): fabric messages in the lock protocol over passages,
    cached or not."""
    system = sync_sweep_system(n_threads, shards, lock_owner_cache,
                               tree_barriers, rounds)
    system.run()
    report = system.stats_report()
    passages = (report["manager"]["lock_acquires"]
                + report.get("lock_cache", {}).get("lock_cache_hits", 0))
    return (report["fabric"]["messages.lock"] / passages,
            report["manager"]["requests.barrier"] / rounds)


def _print_sync_row() -> None:
    """One live row per machine size: what a lock passage and a barrier
    round cost *in the model* (host cost is ``benchmarks/suite``'s
    business; only that one may change under a perf PR)."""
    print("===== sync (live: private lock, 1 us, unlock, full barrier; "
          "six rounds) =====")
    print("threads/shards  remote refs per lock passage  "
          "manager barrier requests per round")
    print("                owner cache off        on     flat      tree")
    for n_threads, shards in ((16, 1), (64, 4)):
        off, flat = sync_cost(n_threads, shards, False, False)
        on, tree = sync_cost(n_threads, shards, True, True)
        print(f"{n_threads:>11}/{shards:<2}  {off:>15.3f}  {on:>8.3f}  "
              f"{flat:>7.1f}  {tree:>8.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the archived tables: the paper's figures "
                    "(§III), the ablations, the extended experiments and "
                    "the sensitivity sweeps.")
    parser.add_argument("figure", nargs="?",
                        help="a table's file stem (fig03, ablation_prefetch, "
                             "ext_hetero, sensitivity_ordering, ...), 'all', "
                             "'verify' (every table's claim), 'campaign' "
                             "(every table and claim, written to "
                             "./campaign/), 'report' or 'chaos'; omit to "
                             "list the tables")
    parser.add_argument("--quick", action="store_true",
                        help="paper figures only: reduced sweep for a fast "
                             "shape check")
    parser.add_argument("--plot", action="store_true",
                        help="render an ASCII chart instead of a table")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="fan sweep cells over N worker processes "
                             "(with a result cache; 0 = serial, uncached)")
    args = parser.parse_args(argv)

    from repro.experiments.verification import TABLES

    if args.figure is None:
        print("Archived tables (benchmarks/results/<name>.txt):")
        width = max(map(len, TABLES))
        for name, fn in sorted(TABLES.items()):
            doc = ((fn.__doc__ or "").strip().splitlines() or [""])[0]
            print(f"  {name:<{width}}  {doc}")
        print("Special: 'all' (every table), 'verify' (claim checks), "
              "'campaign' (tables + report), 'report' (the archive), "
              "'chaos' (fault-schedule report)")
        return 0

    from repro.experiments.parallel import activate, make_executor

    executor = make_executor(args.workers) if args.workers > 0 else None

    if args.figure == "verify":
        from repro.experiments.verification import verify
        with activate(executor):
            return 0 if verify() else 1

    if args.figure == "campaign":
        from repro.experiments.campaign import run_campaign
        run_campaign(workers=args.workers)
        return 0

    if args.figure == "chaos":
        return _run_chaos()

    if args.figure == "report":
        import pathlib
        results = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"
        if not results.is_dir():
            print("no archived results; run `python -m repro.experiments "
                  "campaign` and cp campaign/*.txt benchmarks/results/",
                  file=sys.stderr)
            return 1
        for path in sorted(results.glob("*.txt")):
            print(f"===== {path.name} =====")
            print(path.read_text().rstrip())
            print()
        _print_round_trips_row()
        _print_sync_row()
        return 0

    names = sorted(TABLES) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in TABLES]
    if unknown:
        print(f"unknown table(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    with activate(executor):
        for name in names:
            kwargs = _QUICK_KWARGS.get(name, {}) if args.quick else {}
            fr = TABLES[name](**kwargs)
            if args.plot:
                from repro.experiments.plots import print_chart
                print_chart(fr)
            else:
                print_figure(fr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
