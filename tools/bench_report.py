"""Render BENCH_perf.json and enforce the perf regression gate.

Reading the report::

    python tools/bench_report.py                 # pretty-print ./BENCH_perf.json
    python tools/bench_report.py path/to.json

The gates (used by CI after ``benchmarks/bench_perf.py``)::

    python tools/bench_report.py --check [--max-ratio 1.0]
    python tools/bench_report.py --check-events [--min-event-reduction 3.0]
    python tools/bench_report.py --check-events-rate [--min-events-rate
        100000] [--max-smoke-wall 3.0]
    python tools/bench_report.py --check-batched-rt [--min-trip-reduction
        5.0] [--max-smoke-wall 3.0]
    python tools/bench_report.py --check-off-state
    python tools/bench_report.py --check-shard-scaling
        [--max-shard-load-deviation 0.25] [--min-barrier-reduction 2.0]
        [--max-calls-per-thread-round 215]
    python tools/bench_report.py --check-partition-safety

``--check`` exits non-zero when the measured serial smoke-campaign wall
clock exceeds ``max_ratio x`` the recorded seed baseline -- i.e. when a
change has given back the hot-path optimization wins. The default ratio of
1.0 means "never slower than the unoptimized seed"; it is deliberately
loose because shared CI boxes jitter by +/-30%, and the point of the gate
is catching wholesale regressions (an accidental O(n) -> O(n^2) in the
DES hot path), not 5% noise.

``--check-events`` exits non-zero when the campaign's scheduled-event
count is less than ``min_event_reduction x`` below the recorded seed
count. Event counts are deterministic (no interpreter or box noise), so
this gate is tight: it pins the batching/coalescing win itself, not the
wall clock it happens to buy.

``--check-events-rate`` gates the engine's dispatch throughput: the
256-server sweep cell must sustain at least ``min_events_rate`` scheduled
events/sec through its run phase, and the serial smoke wall must stay
under ``max_smoke_wall`` seconds absolute.
(The former ``max_smoke_ratio`` seed-relative slack leg was retired when
the batched round-trip layer pushed the wall well below it.)

``--check-batched-rt`` gates the batched round-trip protocol: modeled
round-trip request messages on the fig12 smoke cells must be at least
``min_trip_reduction``x below the per-operation protocol's recorded total,
and the serial smoke wall must stay under the absolute target.

``--check-off-state`` is the one determinism gate for everything that is
off by default. The canonical Jacobi cell's trajectory fingerprint (grid
hash, elapsed, event and cache counters -- exact, no tolerance) at the
default configuration must equal the recorded PR 9 pin, and so must the two
configurations that arm a subsystem with nothing for it to do: an all-zero
``FaultPlan`` (injector constructed, silent) and ``fencing=True`` on a
healthy run. Every other gate -- replication, shards -- sits at its
default value in ``SamhitaConfig()``, so the pin covers them.

``--check-shard-scaling`` gates the sharded control plane on the
16 -> 64 -> 256 -> 1,024 compute-server sweep: the mean per-shard manager
RPC load must stay flat across the sweep (deviation at most
``max_shard_load_deviation``), tree barriers must cut total
barrier RPCs by at least ``min_barrier_reduction`` x versus flat barriers
at every sweep point, and the host calls one thread-round costs (cProfile
total of a second, untimed run) must stay at or under
``max_calls_per_thread_round`` at every point and, at the last point,
within 1.15x of the first point whose tree has a cell level (one shard has
none, so its round is a hop shorter by construction) -- the sync path's
cost per thread may not grow with the machine. All quantities are
deterministic counts, so the gates are exact.

``--check-partition-safety`` gates the fenced three-shard machine: a
partition severing one memory server must end data-identical to its
fault-free baseline with a quorum promotion and a fenced stale-epoch write
on the record, and a checkpoint/restore round trip must reproduce the
straight-through final bytes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def render(report: dict) -> str:
    lines = []
    base = report["baseline_seed"]
    host = report["host"]
    cpus = host.get("cpus_usable", host.get("cpus", "?"))
    lines.append(f"smoke campaign: {', '.join(report['smoke_figures'])}  "
                 f"(host: {cpus} cpu, python {host['python']})")
    lines.append("")
    lines.append(f"{'configuration':<26} {'wall (s)':>9} {'vs seed':>9}")
    lines.append("-" * 46)
    lines.append(f"{'seed baseline (' + base['commit'] + ')':<26} "
                 f"{base['wall_s']:>9.3f} {'1.00x':>9}")
    for name, phase in report["phases"].items():
        speed = phase.get("speedup_vs_seed")
        # A warm result cache answers the campaign in ~zero wall time;
        # a speedup figure there is nonsense (or a division by zero at
        # generation time), so cache-hit phases render as "cached".
        vs_seed = f"{speed:.2f}x" if speed is not None else "cached"
        lines.append(f"{name:<26} {phase['wall_s']:>9.3f} {vs_seed:>9}")
    events = report.get("events")
    if events:
        lines.append("")
        lines.append(f"scheduled events: {events['scheduled']:,}  "
                     f"(seed: {events['scheduled_at_seed']:,}, "
                     f"{events['reduction_vs_seed']}x fewer; "
                     f"{events['coalesced']:,} coalesced)")
    rate = report.get("events_rate")
    if rate:
        lines.append("")
        lines.append(f"sustained dispatch: {rate['events_per_sec']:,} "
                     f"events/s  ({rate['events_scheduled']:,} events in "
                     f"{rate['run_wall_s']:.3f} s, "
                     f"best of {rate.get('best_of', 1)})")
        lines.append(f"  campaign: {rate.get('campaign')}")
    lines.append("")
    lines.append(f"{'cell':<34} {'wall (s)':>9} {'events':>9} "
                 f"{'coalesced':>9} {'events/s':>10} {'cache-op/s':>11}")
    lines.append("-" * 86)
    for cell in report["cells"]:
        label = f"{cell['figure']}:{cell['workload']}:{cell['cell']}"
        lines.append(f"{label:<34} {cell['wall_s']:>9.3f} "
                     f"{cell['events']:>9,} "
                     f"{cell.get('events_coalesced', 0):>9,} "
                     f"{cell['events_per_sec']:>10,} "
                     f"{cell['cache_ops_per_sec']:>11,}")
    chaos = report.get("chaos")
    if chaos:
        lines.append("")
        counters = chaos.get("counters", {})
        lines.append(
            f"chaos {chaos['plan']}: data_identical={chaos['data_identical']}"
            f"  retries={counters.get('retries', 0)}"
            f"  timeouts={counters.get('timeouts', 0)}"
            f"  retransmits={counters.get('retransmits', 0)}"
            f"  dup_rpcs_dropped={counters.get('dup_rpcs_dropped', 0)}")
    replication = report.get("replication")
    if replication:
        lines.append("")
        counters = replication.get("counters", {})
        overhead = replication.get("elapsed_overhead")
        lines.append(
            f"replication rf=2: "
            f"data_identical={replication['data_identical']}"
            f"  elapsed +{(overhead or 0) * 100:.1f}%"
            f"  wal_appends={counters.get('wal_appends', 0)}"
            f"  repl_ships={counters.get('repl_ships', 0)}"
            f"  replica_applies={counters.get('replica_applies', 0)}")
    shards = report.get("shard_scaling")
    if shards:
        lines.append("")
        lines.append(f"shard scaling campaign: {shards.get('campaign')}")
        lines.append(f"  {'servers':>8} {'shards':>7} {'rpc/shard':>10} "
                     f"{'barrier rpcs':>13} {'vs flat':>8} "
                     f"{'calls/thread-round':>19}")
        for cell in shards.get("sweep", ()):
            reduction = cell.get("barrier_rpc_reduction")
            lines.append(
                f"  {cell['n_compute']:>8} {cell['shards']:>7} "
                f"{cell['per_shard_mean']:>10} "
                f"{cell['barrier_rpcs']:>13,} "
                f"{f'-{reduction:.1f}x' if reduction else 'n/a':>8} "
                f"{cell.get('host_calls_per_thread_round', 'n/a'):>19}")
        dev = shards.get("per_shard_mean_deviation")
        if dev is not None:
            lines.append(f"  per-shard load deviation across sweep: "
                         f"{dev * 100:.1f}%")
    batched = report.get("batched_rt")
    if batched:
        lines.append("")
        rt = batched.get("round_trips") or {}
        lines.append(
            f"batched round trips: "
            f"{batched.get('requests', {}).get('total', 0):,} modeled "
            f"requests (fig12 smoke) vs "
            f"{batched.get('requests_per_operation', 0):,} per-operation, "
            f"recorded (-{batched.get('trip_reduction') or 0:.1f}x)")
        if rt:
            lines.append(
                f"  ledger (canonical jacobi cell): {rt.get('trips', 0):,} "
                f"trips / "
                f"{rt.get('lines', 0):,} lines "
                f"({rt.get('lines_per_trip_mean', 0)} lines/trip, "
                f"hist {rt.get('lines_per_trip_hist')})")
    for note in report.get("notes", ()):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def check(report: dict, max_ratio: float) -> tuple[bool, str]:
    """The gate: serial smoke wall clock must stay under the seed baseline."""
    seed = report["baseline_seed"]["wall_s"]
    serial = report["phases"]["after_serial"]["wall_s"]
    ratio = serial / seed
    ok = ratio <= max_ratio
    msg = (f"serial smoke campaign: {serial:.3f} s = {ratio:.2f}x seed "
           f"baseline ({seed:.3f} s); gate allows <= {max_ratio:.2f}x")
    return ok, msg


def check_events(report: dict, min_reduction: float) -> tuple[bool, str]:
    """The event gate: scheduled events must stay well under the seed count.

    Deterministic (event counts don't jitter with the box), so it pins the
    batching/coalescing win independent of wall-clock noise.
    """
    events = report.get("events")
    if not events:
        return False, ("report has no 'events' block; regenerate it with "
                       "the current benchmarks/bench_perf.py")
    seed = events.get("scheduled_at_seed") or report["baseline_seed"].get(
        "events_scheduled")
    scheduled = events["scheduled"]
    if not seed or not scheduled:
        return False, f"unusable event counts (seed={seed}, now={scheduled})"
    reduction = seed / scheduled
    ok = reduction >= min_reduction
    msg = (f"scheduled events: {scheduled:,} = {reduction:.2f}x fewer than "
           f"seed ({seed:,}); gate requires >= {min_reduction:.2f}x")
    return ok, msg


def check_events_rate(report: dict, min_rate: float,
                      max_smoke_wall: float) -> tuple[bool, str]:
    """The engine's dispatch-throughput gate.

    Two legs:

    * the recorded 256-server sweep cell must sustain at least
      ``min_rate`` scheduled events/sec through its run phase;
    * the serial smoke campaign must finish within ``max_smoke_wall``
      seconds, absolute. (The gate used to allow ``max(max_smoke_wall,
      0.85 x seed)`` as slack for slow boxes; the batched round-trip
      layer cut the wall far enough that the seed-relative leg was pure
      dead headroom, so it's gone -- the absolute bound is the gate.)
    """
    rate = report.get("events_rate")
    if not rate:
        return False, ("report has no 'events_rate' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    problems = []
    per_sec = rate.get("events_per_sec") or 0
    if per_sec < min_rate:
        problems.append(f"sustained dispatch {per_sec:,}/s < "
                        f"{min_rate:,.0f}/s on the 256-server sweep cell")
    smoke = report["phases"]["after_serial"]["wall_s"]
    if smoke > max_smoke_wall:
        problems.append(f"serial smoke wall {smoke:.3f} s > "
                        f"{max_smoke_wall:.2f} s absolute target")
    if problems:
        return False, "events-rate gate FAILED: " + "; ".join(problems)
    return True, (f"events rate: {per_sec:,}/s sustained on the 256-server "
                  f"sweep (gate >= {min_rate:,.0f}/s); serial smoke "
                  f"{smoke:.3f} s <= {max_smoke_wall:.2f} s absolute target")


def check_batched_rt(report: dict, min_trip_reduction: float,
                     max_smoke_wall: float) -> tuple[bool, str]:
    """The batched round-trip gate, two legs:

    * modeled round-trip request messages on the fig12 smoke cells must be
      at least ``min_trip_reduction``x below the per-operation protocol's
      recorded total;
    * the serial smoke wall must stay under ``max_smoke_wall`` seconds.
    """
    block = report.get("batched_rt")
    if not block:
        return False, ("report has no 'batched_rt' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    problems = []
    reduction = block.get("trip_reduction")
    if reduction is None or reduction < min_trip_reduction:
        problems.append(f"round-trip reduction {reduction} < "
                        f"{min_trip_reduction:.1f}x")
    smoke = report["phases"]["after_serial"]["wall_s"]
    if smoke > max_smoke_wall:
        problems.append(f"serial smoke wall {smoke:.3f} s > "
                        f"{max_smoke_wall:.2f} s")
    if problems:
        return False, "batched round-trip gate FAILED: " + "; ".join(problems)
    return True, (f"batched round trips: "
                  f"{block.get('requests_per_operation', 0):,} recorded "
                  f"per-operation requests -> "
                  f"{block.get('requests', {}).get('total', 0):,} "
                  f"(-{reduction:.1f}x, gate >= {min_trip_reduction:.1f}x); "
                  f"serial smoke {smoke:.3f} s <= {max_smoke_wall:.2f} s")


def check_off_state(report: dict) -> tuple[bool, str]:
    """The off-state gate: the default build's fingerprint must equal the
    PR 9 pin, the injector-silent run and the fencing-idle run, field for
    field (exact floats and counter dicts, no tolerance)."""
    block = report.get("off_state")
    if not block:
        return False, ("report has no 'off_state' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    default = block.get("default", {})
    problems = []
    for name in ("pr9_fingerprint", "injector_silent", "fencing_idle"):
        other = block.get(name, {})
        diverged = sorted(k for k in set(default) | set(other)
                          if default.get(k) != other.get(k))
        if diverged:
            problems.append(f"default vs {name} in: " + ", ".join(diverged))
    if problems:
        return False, "off-state fingerprints DIVERGED: " + "; ".join(problems)
    return True, ("off-state fingerprints bit-identical: default == PR 9 pin "
                  f"== injector-silent == fencing-idle ({len(default)} "
                  "fields compared)")


def check_partition_safety(report: dict) -> tuple[bool, str]:
    """The partition-safety gate, two sub-checks in one:

    * the partition chaos cell must end with data identical to its
      fault-free baseline, with >= 1 promotion and >= 1 fenced
      stale-epoch write on the record (zero stale writes applied);
    * the checkpoint/restore round trip must reproduce the
      straight-through final bytes.
    """
    block = report.get("partition_safety")
    if not block:
        return False, ("report has no 'partition_safety' block; regenerate "
                       "it with the current benchmarks/bench_perf.py")
    problems = []
    cut = block.get("partition", {})
    membership = cut.get("membership", {})
    if not cut.get("data_identical"):
        problems.append("partitioned run data NOT identical to baseline "
                        "(a stale-epoch write got applied?)")
    if membership.get("promotions", 0) < 1:
        problems.append("no quorum promotion during the partition cell")
    if membership.get("stale_writes_fenced", 0) < 1:
        problems.append("no stale-epoch write was fenced")
    ckpt = block.get("checkpoint", {})
    if not ckpt.get("roundtrip_identical"):
        problems.append("checkpoint/restore round trip diverged: "
                        f"{ckpt.get('final_sha256')} vs "
                        f"{ckpt.get('restored_sha256')}")
    if ckpt.get("checkpoints_taken", 0) < 1:
        problems.append("no checkpoints were taken")
    if problems:
        return False, "partition safety FAILED: " + "; ".join(problems)
    return True, (f"partition safety: cut survived with "
                  f"{membership.get('promotions')} promotion(s) and "
                  f"{membership.get('stale_writes_fenced')} fenced stale "
                  f"write(s), checkpoint round trip reproduced "
                  f"{ckpt.get('checkpoint_pages')} pages exactly")


#: The last sweep point may cost at most this many times the first
#: point's host calls per thread-round.
MAX_CALLS_GROWTH = 1.15


def check_shard_scaling(report: dict, max_deviation: float,
                        min_barrier_reduction: float,
                        max_calls: float) -> tuple[bool, str]:
    """The sharded-control-plane gate: per-shard RPC load flat across the
    sweep, tree barriers beat flat barriers, host calls per thread-round
    bounded and flat."""
    shards = report.get("shard_scaling")
    if not shards:
        return False, ("report has no 'shard_scaling' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    problems = []
    deviation = shards.get("per_shard_mean_deviation")
    if deviation is None or deviation > max_deviation:
        problems.append(f"per-shard load deviation {deviation} > "
                        f"{max_deviation:.2f}")
    sweep = shards.get("sweep", ())
    if not sweep:
        problems.append("empty sweep")
    for cell in sweep:
        reduction = cell.get("barrier_rpc_reduction")
        if reduction is None or reduction < min_barrier_reduction:
            problems.append(f"barrier RPC reduction {reduction} < "
                            f"{min_barrier_reduction:.1f}x at "
                            f"{cell.get('n_compute')} servers")
        calls = cell.get("host_calls_per_thread_round")
        if calls is None or calls > max_calls:
            problems.append(f"{calls} host calls per thread-round > "
                            f"{max_calls:g} at {cell.get('n_compute')} "
                            f"servers")
    # Growth is measured between like protocols: on one shard the tree has
    # no cell level, so that point's round is shorter by construction.
    treed = [cell for cell in sweep if cell.get("shards", 0) > 1]
    per_round = [cell.get("host_calls_per_thread_round") for cell in treed]
    if (per_round and all(per_round)
            and per_round[-1] > MAX_CALLS_GROWTH * per_round[0]):
        problems.append(f"host calls per thread-round grow {per_round[0]} "
                        f"-> {per_round[-1]} (> {MAX_CALLS_GROWTH}x) from "
                        f"{treed[0].get('n_compute')} to "
                        f"{treed[-1].get('n_compute')} servers")
    if problems:
        return False, "shard scaling FAILED: " + "; ".join(problems)
    top = sweep[-1]
    calls = " / ".join(str(c["host_calls_per_thread_round"]) for c in sweep)
    return True, (f"shard scaling: per-shard load deviation "
                  f"{deviation * 100:.1f}% (gate <= "
                  f"{max_deviation * 100:.0f}%) across "
                  f"{'/'.join(str(c['n_compute']) for c in sweep)} servers, "
                  f"barriers -{top['barrier_rpc_reduction']:.1f}x vs flat "
                  f"(gate >= {min_barrier_reduction:.1f}x), host calls per "
                  f"thread-round {calls} (gate <= {max_calls:g}, last <= "
                  f"{MAX_CALLS_GROWTH}x the first with a cell level)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", nargs="?", default="BENCH_perf.json",
                        help="path to BENCH_perf.json")
    parser.add_argument("--check", action="store_true",
                        help="regression gate: exit 1 if the serial smoke "
                             "run is slower than max-ratio x seed baseline")
    parser.add_argument("--max-ratio", type=float, default=1.0,
                        help="gate threshold vs seed baseline (default 1.0)")
    parser.add_argument("--check-events", action="store_true",
                        help="event gate: exit 1 if scheduled events are not "
                             "at least min-event-reduction x below the seed "
                             "count")
    parser.add_argument("--min-event-reduction", type=float, default=3.0,
                        help="required event-count reduction vs seed "
                             "(default 3.0)")
    parser.add_argument("--check-events-rate", action="store_true",
                        help="throughput gate: exit 1 unless the 256-server "
                             "sweep sustains min-events-rate events/sec and "
                             "the serial smoke wall stays under the "
                             "absolute target")
    parser.add_argument("--min-events-rate", type=float, default=100_000,
                        help="required sustained events/sec on the "
                             "256-server sweep cell (default 100000)")
    parser.add_argument("--max-smoke-wall", type=float, default=3.0,
                        help="absolute serial smoke wall bound in seconds, "
                             "shared by --check-events-rate and "
                             "--check-batched-rt (default 3.0: best "
                             "measured 1.48 s on the 1-CPU reference box "
                             "plus CI-runner jitter headroom)")
    parser.add_argument("--check-batched-rt", action="store_true",
                        help="batched round-trip gate: exit 1 unless "
                             "modeled round-trip requests are "
                             "min-trip-reduction x below the recorded "
                             "per-operation total and the serial smoke wall "
                             "is under the target")
    parser.add_argument("--min-trip-reduction", type=float, default=5.0,
                        help="required reduction in modeled round-trip "
                             "request messages vs the recorded per-operation "
                             "total (default 5.0)")
    parser.add_argument("--check-off-state", action="store_true",
                        help="determinism gate: exit 1 unless the recorded "
                             "default, PR 9 pin, injector-silent and "
                             "fencing-idle fingerprints are bit-identical")
    parser.add_argument("--check-partition-safety", action="store_true",
                        help="gate: partition cell data-identical with >=1 "
                             "fenced stale write, checkpoint round trip "
                             "exact")
    parser.add_argument("--check-shard-scaling", action="store_true",
                        help="control-plane gate: exit 1 unless per-shard "
                             "RPC load stays flat across the sweep and tree "
                             "barriers cut barrier RPCs by the required "
                             "factor")
    parser.add_argument("--max-shard-load-deviation", type=float,
                        default=0.25,
                        help="allowed per-shard mean RPC-load deviation "
                             "across the sweep (default 0.25)")
    parser.add_argument("--min-barrier-reduction", type=float, default=2.0,
                        help="required tree-vs-flat barrier RPC reduction "
                             "at every sweep point (default 2.0)")
    parser.add_argument("--max-calls-per-thread-round", type=float,
                        default=215.0,
                        help="allowed host calls (cProfile total) per "
                             "thread-round at every sweep point "
                             "(default 215)")
    args = parser.parse_args(argv)

    path = pathlib.Path(args.report)
    if not path.exists():
        print(f"no report at {path}; run "
              f"`PYTHONPATH=src python benchmarks/bench_perf.py` first",
              file=sys.stderr)
        return 2
    report = json.loads(path.read_text())
    print(render(report))
    failed = False
    if args.check:
        ok, msg = check(report, args.max_ratio)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_events:
        ok, msg = check_events(report, args.min_event_reduction)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_events_rate:
        ok, msg = check_events_rate(report, args.min_events_rate,
                                    args.max_smoke_wall)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_batched_rt:
        ok, msg = check_batched_rt(report, args.min_trip_reduction,
                                   args.max_smoke_wall)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_off_state:
        ok, msg = check_off_state(report)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_partition_safety:
        ok, msg = check_partition_safety(report)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_shard_scaling:
        ok, msg = check_shard_scaling(report, args.max_shard_load_deviation,
                                      args.min_barrier_reduction,
                                      args.max_calls_per_thread_round)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
