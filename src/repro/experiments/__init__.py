"""Evaluation harness: every figure of the paper's §III as a callable.

``repro.experiments.figures.FIGURES`` maps ``"fig03" .. "fig13"`` to
functions that run the corresponding parameter sweep and return a
:class:`~repro.experiments.results.FigureResult`;
:func:`repro.experiments.report.format_figure` renders it as the same
rows/series the paper plots. ``repro.experiments.verification.TABLES``
adds the ablations and extended experiments, keyed by their
``benchmarks/results`` file stems, and ``CLAIMS`` checks each table.
"""

from repro.experiments.results import FigureResult, Series
from repro.experiments.harness import run_workload, sweep
from repro.experiments import figures
from repro.experiments.analysis import UtilizationReport, analyze
from repro.experiments.plots import ascii_chart, print_chart
from repro.experiments.report import format_figure, print_figure
from repro.experiments.timeline import print_timeline, render_timeline

__all__ = [
    "FigureResult",
    "Series",
    "UtilizationReport",
    "analyze",
    "ascii_chart",
    "figures",
    "format_figure",
    "print_chart",
    "print_figure",
    "print_timeline",
    "render_timeline",
    "run_workload",
    "sweep",
]
