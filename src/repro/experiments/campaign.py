"""One-command reproduction campaign.

Builds the 11 paper figures at paper scale, checks every claim on them and
writes each table (``figNN.txt``, the bytes ``benchmarks/results/`` archives)
plus a self-contained markdown report (tables + PASS/FAIL per paper claim)
-- the generated counterpart of the hand-written EXPERIMENTS.md.

    python -m repro.experiments campaign            # writes ./campaign/
"""

from __future__ import annotations

import pathlib
import platform
import time

from repro._version import __version__
from repro.experiments.report import format_figure
from repro.experiments.verification import check_claims


def run_campaign(out_dir: str | pathlib.Path = "campaign",
                 echo: bool = True,
                 workers: int = 0) -> pathlib.Path:
    """Run the campaign; returns the path of the written report.

    ``workers > 0`` fans the sweep cells of each figure over a process pool
    and shares one result cache across the whole campaign (repeated cells --
    e.g. every figure's 1-thread Pthreads baseline -- run once).
    """
    from repro.experiments.parallel import activate, make_executor

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    executor = make_executor(workers) if workers > 0 else None
    started = time.time()
    with activate(executor):
        figs, verdicts = check_claims()

    lines = [
        "# Reproduction campaign report",
        "",
        f"* package: repro {__version__}",
        f"* python:  {platform.python_version()} on {platform.system()}",
        "",
        "## Claim checks",
        "",
        "| figure | claim | status | detail |",
        "|---|---|---|---|",
    ]
    for claim, ok, detail in verdicts:
        status = "PASS" if ok else "**FAIL**"
        lines.append(f"| {claim.figure} | {claim.statement} | {status} "
                     f"| {detail} |")
        if echo:
            print(f"[{'PASS' if ok else 'FAIL'}] {claim.figure}: {detail}")

    lines += ["", "## Figure tables", ""]
    for name, fr in figs.items():
        table = format_figure(fr)
        (out / f"{name}.txt").write_text(table + "\n")
        lines += [f"### {name}", "", "```", table, "```", ""]

    verdict = ("All claims reproduced." if all(ok for _, ok, _ in verdicts)
               else "SOME CLAIMS FAILED.")
    lines.append(f"_Campaign wall time: {time.time() - started:.1f} s. "
                 f"{verdict}_")
    report = out / "REPORT.md"
    report.write_text("\n".join(lines) + "\n")
    if echo:
        print(f"\nreport written to {report}")
    return report
