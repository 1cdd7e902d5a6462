"""Text rendering of figure results, one table per figure.

The output mirrors the paper's plots as rows (series) x columns (x values),
so a side-by-side visual comparison with the published figures is direct.
"""

from __future__ import annotations

from repro.experiments.results import FigureResult


def _fmt(value: float, log_scale: bool) -> str:
    if value == 0:
        return "0"
    if log_scale or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.4f}"


def format_figure(fr: FigureResult) -> str:
    """Render one figure as an aligned text table."""
    log_scale = bool(fr.meta.get("log_scale"))
    xs = fr.xs
    header = [fr.xlabel] + [
        str(x if isinstance(x, str) or not float(x).is_integer() else int(x))
        for x in xs]
    rows = [header]
    for label, series in fr.series.items():
        lookup = dict(series.points)
        row = [label]
        for x in xs:
            row.append(_fmt(lookup[x], log_scale) if x in lookup else "-")
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [f"# {fr.figure}: {fr.title}",
             f"# y-axis: {fr.ylabel}" + ("  [log scale]" if log_scale else "")]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def print_figure(fr: FigureResult) -> None:
    print(format_figure(fr))
    print()


#: Recovery counters shown by the chaos report, in display order.
#: ``partition_drops`` through ``degraded_waits`` belong to the partition
#: profile (fenced machine): severed messages, quorum promotions, fenced
#: stale-epoch writes, degraded-mode backoff waits. ``jitter_stalls``
#: (heavy-tailed latency stalls) belongs to the jitter-storm profile.
#: Each group is zero outside its own profiles.
FAULT_COUNTERS = ("retries", "timeouts", "retransmits", "dup_msgs_discarded",
                  "delay_spikes", "crash_drops", "partition_drops",
                  "promotions", "stale_writes_fenced", "degraded_waits",
                  "jitter_stalls")


def format_chaos(rows: list[dict], clean_elapsed: float) -> str:
    """Render the chaos-run table: one row per seeded fault schedule.

    Each row dict carries ``profile``, ``seed``, ``data_identical``,
    ``elapsed`` and the fault-stat ``counters``; ``clean_elapsed`` is the
    fault-free baseline the slowdowns are relative to.
    """
    header = (["profile", "seed", "data", "slowdown"]
              + list(FAULT_COUNTERS))
    table = [header]
    for row in rows:
        counters = row["counters"]
        table.append(
            [row["profile"], str(row["seed"]),
             "identical" if row["data_identical"] else "DIVERGED",
             f"{row['elapsed'] / clean_elapsed:.2f}x"]
            + [str(counters.get(c, 0)) for c in FAULT_COUNTERS])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["# chaos: seeded fault schedules vs fault-free run",
             "# 'data' compares final workload state bit-for-bit; faults "
             "may only change timing"]
    for i, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)
