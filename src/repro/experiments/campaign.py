"""One-command reproduction campaign.

Builds every archived table once (the 11 paper figures at paper scale, the
ablations, extended experiments and sensitivity sweeps), checks every claim
on them and writes each table (``<stem>.txt``, the bytes
``benchmarks/results/`` archives) plus a self-contained markdown report
(tables + PASS/FAIL per claim) -- the generated counterpart of the
hand-written EXPERIMENTS.md.

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
    e.g. every figure's 1-thread Pthreads baseline, or Figure 7's 32-thread
    row that the prefetch ablation re-reads -- run once).
    """
    from repro.experiments.parallel import activate, make_executor

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    executor = make_executor(workers) if workers > 0 else None
    started = time.time()
    with activate(executor):
        tables, verdicts = check_claims()

    lines = [
        "# Reproduction campaign report",
        "",
        f"* package: repro {__version__}",
        f"* python:  {platform.python_version()} on {platform.system()}",
        "",
        "## Claim checks",
        "",
        "| table | claim | status | detail |",
        "|---|---|---|---|",
    ]
    for claim, ok, detail in verdicts:
        status = "PASS" if ok else "**FAIL**"
        if claim.deviation is not None:
            status += f" (deviation {claim.deviation})"
        lines.append(f"| {claim.table} | {claim.statement} | {status} "
                     f"| {detail} |")
        if echo:
            print(f"[{'PASS' if ok else 'FAIL'}] {claim.table}: {detail}")

    lines += ["", "## Tables", ""]
    for name, fr in tables.items():
        table = format_figure(fr)
        (out / f"{name}.txt").write_text(table + "\n")
        lines += [f"### {name}", "", "```", table, "```", ""]

    verdict = ("Every verdict matches its record."
               if all(claim.matches(ok) for claim, ok, _ in verdicts)
               else "SOME VERDICTS DIFFER FROM THEIR RECORDS.")
    lines.append(f"_Campaign wall time: {time.time() - started:.1f} s. "
                 f"{verdict}_")
    report = out / "REPORT.md"
    report.write_text("\n".join(lines) + "\n")
    if echo:
        print(f"\nreport written to {report}")
    return report
