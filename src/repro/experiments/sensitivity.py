"""Sensitivity analysis: how robust are the paper's shapes to calibration?

Every timing constant in this reproduction is an estimate of 2013-era
hardware. These sweeps vary one constant at a time and measure its effect
on a workload, showing which conclusions depend on calibration (absolute
gaps) and which don't (orderings) -- the justification for DESIGN.md's
claim that shapes, not absolute values, are the reproduction targets.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.params import SamhitaConfig
from repro.experiments.harness import run_workload
from repro.experiments.results import FigureResult
from repro.interconnect import ib_ddr, ib_fdr, ib_qdr, ib_sdr
from repro.interconnect.base import LinkModel
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench

#: The archived sweeps' workloads: the micro-benchmark at P=8.
LOCAL, GLOBAL, STRIDED = (
    MicrobenchParams(N=6, M=4, S=2, B=256, allocation=allocation)
    for allocation in (Allocation.LOCAL, Allocation.GLOBAL,
                       Allocation.GLOBAL_STRIDED))


def _metric(result, which: str) -> float:
    if which == "compute":
        return result.mean_compute_time
    if which == "sync":
        return result.mean_sync_time
    if which == "total":
        return result.mean_compute_time + result.mean_sync_time
    raise ValueError(f"unknown metric {which!r}")


def config_sensitivity(field: str, values, spawn_fn, params,
                       n_threads: int = 8,
                       base: SamhitaConfig | None = None,
                       metrics: tuple[str, ...] = ("compute", "sync"),
                       ) -> FigureResult:
    """Sweep one :class:`SamhitaConfig` field; one series per metric."""
    base = base or SamhitaConfig()
    fr = FigureResult(
        figure=f"sensitivity[{field}]",
        title=f"Sensitivity to {field} (P={n_threads})",
        xlabel=field,
        ylabel="seconds",
        meta={"field": field, "P": n_threads},
    )
    series = {m: fr.new_series(m) for m in metrics}
    for value in values:
        config = base.with_(**{field: value})
        result = run_workload("samhita", n_threads, spawn_fn, params,
                              config=config)
        for m in metrics:
            series[m].add(value, _metric(result, m))
    return fr


def link_sensitivity(links: Mapping[str, LinkModel], spawn_fn, params,
                     n_threads: int = 8,
                     base: SamhitaConfig | None = None,
                     metrics: tuple[str, ...] = ("compute", "sync"),
                     ) -> FigureResult:
    """Run one workload over different cluster fabrics; x = link index."""
    fr = FigureResult(
        figure="sensitivity[fabric]",
        title=f"Sensitivity to the interconnect (P={n_threads})",
        xlabel="fabric",
        ylabel="seconds",
        meta={"fabrics": list(links), "P": n_threads},
    )
    series = {m: fr.new_series(m) for m in metrics}
    for index, (name, link) in enumerate(links.items()):
        result = run_workload("samhita", n_threads, spawn_fn, params,
                              config=base, fabric_link=link)
        for m in metrics:
            series[m].add(index, _metric(result, m))
    return fr


def manager_service() -> FigureResult:
    """Sync and compute time across a 10x swing of the manager service time."""
    return config_sensitivity("manager_service_time", [0.5e-6, 1.5e-6, 5e-6],
                              spawn_microbench, STRIDED)


def ib_generations() -> FigureResult:
    """One strided workload over each InfiniBand generation, SDR to FDR."""
    links = {"sdr": ib_sdr(), "ddr": ib_ddr(), "qdr": ib_qdr(), "fdr": ib_fdr()}
    return link_sensitivity(links, spawn_microbench, STRIDED)


def ordering() -> FigureResult:
    """Compute time per allocation across the fault-handler cost sweep."""
    fr = FigureResult(
        figure="sensitivity[fault_handler_time]",
        title="Allocation ordering across fault_handler_time (P=8)",
        xlabel="fault_handler_time",
        ylabel="compute time (s)",
        meta={"P": 8},
    )
    for label, params in (("local", LOCAL), ("global", GLOBAL),
                          ("strided", STRIDED)):
        sweep = config_sensitivity("fault_handler_time", [0.3e-6, 1e-6, 3e-6],
                                   spawn_microbench, params,
                                   metrics=("compute",))
        fr.new_series(label).points.extend(sweep["compute"].points)
    return fr
