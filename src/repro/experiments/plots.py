"""ASCII rendering of figure results.

No plotting library is available offline, so figures render as character
charts good enough to eyeball the paper's shapes: one marker per series,
optional log-y (essential for Figure 11), right-hand legend.
"""

from __future__ import annotations

import math

from repro.experiments.results import FigureResult

_MARKERS = "ox+*#@%&"


def _ticks(lo: float, hi: float, log: bool) -> tuple[float, float]:
    if log:
        lo = math.log10(max(lo, 1e-30))
        hi = math.log10(max(hi, 1e-30))
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def ascii_chart(fr: FigureResult, width: int = 64, height: int = 18,
                log_y: bool | None = None) -> str:
    """Render a FigureResult as an ASCII chart."""
    if not fr.series:
        return f"# {fr.figure}: (no data)"
    if log_y is None:
        log_y = bool(fr.meta.get("log_scale"))

    # A categorical x (a policy, a protocol) is plotted at its column index.
    column = {x: i if isinstance(x, str) else x for i, x in enumerate(fr.xs)}
    xs = list(column.values())
    ys = [y for s in fr.series.values() for y in s.ys if y > 0 or not log_y]
    if not ys:
        ys = [1e-9]
    x_lo, x_hi = _ticks(min(xs), max(xs), log=False)
    y_lo, y_hi = _ticks(min(ys), max(ys), log=log_y)

    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        if log_y:
            if y <= 0:
                return
            y = math.log10(y)
        col = int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))
        row = int(round((y - y_lo) / (y_hi - y_lo) * (height - 1)))
        grid[height - 1 - row][col] = marker

    legend = []
    for i, (label, series) in enumerate(fr.series.items()):
        marker = _MARKERS[i % len(_MARKERS)]
        legend.append(f"{marker} {label}")
        for x, y in series.points:
            place(column[x], y, marker)

    def fmt(v: float) -> str:
        if log_y:
            return f"1e{v:+.1f}"
        return f"{v:.3g}"

    lines = [f"# {fr.figure}: {fr.title}"]
    top_label = fmt(y_hi)
    bottom_label = fmt(y_lo)
    pad = max(len(top_label), len(bottom_label))
    for i, row in enumerate(grid):
        if i == 0:
            label = top_label
        elif i == height - 1:
            label = bottom_label
        else:
            label = ""
        lines.append(f"{label.rjust(pad)} |{''.join(row)}|")
    axis = f"{'':{pad}} +{'-' * width}+"
    lines.append(axis)
    lines.append(f"{'':{pad}}  {str(int(x_lo)):<8}{fr.xlabel:^{width - 16}}"
                 f"{str(int(x_hi)):>8}")
    lines.append(f"{'':{pad}}  y: {fr.ylabel}"
                 + ("  [log]" if log_y else ""))
    lines.extend(f"{'':{pad}}  {entry}" for entry in legend)
    return "\n".join(lines)


def print_chart(fr: FigureResult, **kwargs) -> None:
    print(ascii_chart(fr, **kwargs))
    print()
