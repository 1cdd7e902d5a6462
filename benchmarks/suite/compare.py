"""``compare A.json B.json``: B against A under the bounds of BENCHMARK.json.

One row per (end-to-end metric, workload). ``worse`` when B's median is
worse than A's by more than the metric's bound; ``unresolved`` when either
side's own spread (IQR / median) exceeds the bound, so the comparison cannot
tell; ``ok`` otherwise. Simulated quantities and counts are expected to
repeat exactly, so every per-layer value of that kind that differs is
listed too (informational: a change to the modelled design moves them on
purpose).
"""

from __future__ import annotations

import json

from benchmarks.suite.metrics import load_contract

#: Per-layer units measured on the host clock; everything else repeats
#: exactly between two runs of one commit.
HOST_CLOCK_UNITS = {"host_s", "1/s", "x"}


def _spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if "q1" in row else 0.0


def verdict(spec: dict, before: dict, after: dict) -> tuple[str, float]:
    """(``ok`` / ``worse`` / ``unresolved``, share by which B is worse)."""
    a, b = before["value"], after["value"]
    worse_by = (b - a) / a if spec["better"] == "lower" else (a - b) / a
    if max(_spread(before), _spread(after)) > spec["bound"]:
        return "unresolved", worse_by
    return ("worse" if worse_by > spec["bound"] else "ok"), worse_by


def compare_files(before_path: str, after_path: str) -> int:
    contract = load_contract()
    with open(before_path) as fh:
        before = json.load(fh)["workloads"]
    with open(after_path) as fh:
        after = json.load(fh)["workloads"]
    any_worse = False
    print(f"{'metric':18s} {'workload':22s} {'before':>14s} {'after':>14s} "
          f"{'worse by':>9s} {'bound':>7s}  verdict")
    for spec in contract["end_to_end"]:
        for workload in before:
            a = before[workload]["end_to_end"][spec["name"]]
            b = after[workload]["end_to_end"][spec["name"]]
            status, worse_by = verdict(spec, a, b)
            any_worse |= status == "worse"
            print(f"{spec['name']:18s} {workload:22s} {a['value']:14.8g} "
                  f"{b['value']:14.8g} {worse_by:9.2%} {spec['bound']:7.1%}"
                  f"  {status}")
    differing = [
        (workload, name, a["value"], after[workload]["per_layer"][name]["value"])
        for workload in before
        for name, a in before[workload]["per_layer"].items()
        if a["unit"] not in HOST_CLOCK_UNITS
        and a["value"] != after[workload]["per_layer"][name]["value"]]
    print(f"\nper-layer simulated quantities and counts that differ: "
          f"{len(differing)}")
    for workload, name, a, b in differing:
        print(f"  {workload:22s} {name:42s} {a!r} -> {b!r}")
    return 1 if any_worse else 0
