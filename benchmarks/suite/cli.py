"""Command line of the benchmark suite.

``run``      every workload from one process: interleaved timed rounds, cold
             subprocesses, one traced pass each; prints every metric by name
             with its unit and writes them with ``--out``.
``run --check``  one pass per workload, checks only, no timing.
``compare``  two ``run --out`` files against the bounds in BENCHMARK.json.
``measure``  one workload for a fixed time: the form the benchmark driver
             calls (``--workload --seed --seconds --trace``); prints one
             JSON object as the last line.
``cold``     body of the cold subprocess (internal).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy

from benchmarks.suite import metrics
from benchmarks.suite.compare import compare_files
from benchmarks.suite.harness import Session, cold_main
from benchmarks.suite.workloads import WORKLOADS

#: ``run``: timed rounds after one warm-up round per workload.
ROUNDS = 13
#: ``measure`` never reports the best of fewer passes than this.
MIN_PASSES = 3
#: IQR/median of the passes' wall clock above which a workload is noisy.
NOISY_SPREAD = 0.08


def _launch_cold(session: Session, full: int, setup_only: int = 0,
                 discard: int = 0) -> list[dict]:
    """``full`` launches run a pass (RSS, first-pass time, fingerprint);
    ``setup_only`` ones stop after the build and only add set-up samples.
    ``discard`` full launches go first and warm the page cache."""
    launches = [session.cold_launch() for _ in range(discard + full)][discard:]
    launches += [session.cold_launch(run_pass=False)
                 for _ in range(setup_only)]
    colds = [c for c in launches if c is not None]
    if not any("peak_rss_mb" in c for c in colds):
        raise SystemExit(f"{session.name}: every cold launch failed:\n"
                         + "\n".join(session.failures))
    return colds


def _host_record() -> dict:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _print_workload(name: str, e2e: dict, layers: dict) -> None:
    print(f"\n== {name}")
    for metric, row in {**e2e, **layers}.items():
        spread = (f"  median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  n={row['n']}" if "n" in row else "")
        print(f"  {metric:42s} {row['value']:<14.8g} {row['unit']}{spread}")


def _check_only(sessions) -> int:
    """One pass per workload: the checks, no timing."""
    for session in sessions:
        session.run_pass()
        failed = len(session.failures)
        print(f"{session.name}: {session.attempted - failed}"
              f"/{session.attempted} checks passed")
        for failure in session.failures:
            print(failure, file=sys.stderr)
    return 1 if any(s.failures for s in sessions) else 0


def cmd_run(args) -> int:
    contract = metrics.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    host = {"start": _host_record()}
    sessions = {name: Session(name, args.seed) for name in names}
    if args.check:
        return _check_only(list(sessions.values()))

    # Interleaved: each round runs every workload once, so minute-scale
    # host drift lands on all of them equally.
    walls: dict[str, list[float]] = {name: [] for name in names}
    for round_no in range(ROUNDS + 1):
        for name in names:
            record = sessions[name].run_pass()
            if round_no:  # round 0 is the warm-up
                walls[name].append(record.wall_s)
    report = {"seed": args.seed, "host": host, "workloads": {}}
    trace_events = []
    for pid, name in enumerate(names):
        session = sessions[name]
        traced = session.run_pass(traced=True)
        trace_events += traced.spans.chrome_trace(pid=pid, tid=name)
        colds = _launch_cold(session, full=3, setup_only=4, discard=1)
        e2e = metrics.with_units(
            metrics.end_to_end(session, walls[name], traced, colds),
            contract["end_to_end"])
        layers = metrics.with_units(
            metrics.per_layer(walls[name], traced, colds),
            contract["per_layer"])
        wall = e2e["wall_s"]
        spread = (wall["q3"] - wall["q1"]) / wall["median"]
        report["workloads"][name] = {
            "end_to_end": e2e, "per_layer": layers,
            "error_rate": len(session.failures) / session.attempted,
            "checks_attempted": session.attempted,
            "failures": session.failures,
            "wall_spread": spread, "noisy": spread > NOISY_SPREAD}
        _print_workload(name, e2e, layers)
    host["end"] = _host_record()

    print(f"\nhost: {host['start']['nproc']} cpus, load "
          f"{host['start']['loadavg'][0]:.2f} -> {host['end']['loadavg'][0]:.2f},"
          f" python {host['start']['python']}, numpy {host['start']['numpy']}")
    print(f"wall_s is the fastest of n={ROUNDS} passes; that many samples "
          "support a median and quartiles but no tail percentile.")
    for name, row in report["workloads"].items():
        flag = ("  NOISY: spread above "
                f"{NOISY_SPREAD:.0%}, rerun on a quieter host before "
                "comparing" if row["noisy"] else "")
        print(f"  {name:22s} wall_s IQR/median {row['wall_spread']:.2%}"
              f"  error_rate {row['error_rate']:.4g}{flag}")
        for failure in row["failures"]:
            print(failure, file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump({"traceEvents": trace_events}, fh)
    return 1 if any(r["failures"] for r in report["workloads"].values()) else 0


def cmd_measure(args) -> int:
    contract = metrics.load_contract()
    session = Session(args.workload, args.seed)
    session.run_pass()  # warm-up: caches fill, lazy set-up finishes
    walls: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(walls) < MIN_PASSES:
        walls.append(session.run_pass().wall_s)
    traced = session.run_pass(traced=True)
    if args.trace:
        colds = _launch_cold(session, full=1)
        values = metrics.with_units(metrics.per_layer(walls, traced, colds),
                                    contract["per_layer"])
    else:
        colds = _launch_cold(session, full=2, setup_only=5)
        values = metrics.with_units(
            metrics.end_to_end(session, walls, traced, colds),
            contract["end_to_end"])
    print("passes (s):", " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    for failure in session.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in values.items()}}))
    return 0


def cmd_cold(args) -> int:
    print(json.dumps(cold_main(args.workload, args.seed, args.started,
                               run_pass=not args.setup_only)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="the whole suite from one process")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--out", help="write the report as JSON")
    run.add_argument("--trace-out", help="write the traced passes' spans "
                     "as Chrome-trace JSON")
    run.add_argument("--check", action="store_true",
                     help="one pass per workload, checks only, no timing")
    run.set_defaults(fn=cmd_run)

    cmp_ = sub.add_parser("compare", help="apply the bounds to two reports")
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    cmp_.set_defaults(fn=lambda a: compare_files(a.before, a.after))

    measure = sub.add_parser("measure", help="one workload, time-boxed")
    measure.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    measure.set_defaults(fn=cmd_measure)

    cold = sub.add_parser("cold")
    cold.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    cold.add_argument("--seed", type=int, required=True)
    cold.add_argument("--started", type=float, required=True)
    cold.add_argument("--setup-only", action="store_true")
    cold.set_defaults(fn=cmd_cold)

    args = parser.parse_args(argv)
    return args.fn(args)
