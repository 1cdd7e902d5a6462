"""Extended experiments beyond the paper's Figures 3-13.

The paper's evaluation ran on a cluster *standing in* for the heterogeneous
node it actually targets (Figure 1), and §V sketches what the real port
would need. These experiments run the micro-benchmark on that target
machine, and run §II's condition variables at scale.

* :func:`hetero_figure` -- the micro-benchmark on the host+coprocessor
  machine, comparing the verbs-proxy and SCIF paths against the IB-cluster
  stand-in at matched thread counts (§V quantified).
* :func:`multi_coprocessor_figure` -- thread scaling across 1 vs 2
  coprocessors with packed vs spread placement (PCIe bus contention).
* :func:`pipeline_figure` -- condvar pipeline throughput vs consumer count.

Each is archived as ``benchmarks/results/ext_*.txt``
(``verification.TABLES``) and checked by its claim.
"""

from __future__ import annotations

from repro.core.params import SamhitaConfig
from repro.core.placement import PlacementPolicy
from repro.core.system import SamhitaSystem
from repro.experiments.results import FigureResult
from repro.interconnect.scif import scif_link, verbs_proxy_link
from repro.kernels import (
    Allocation,
    MicrobenchParams,
    PipelineParams,
    spawn_microbench,
    spawn_pipeline,
)
from repro.runtime import Runtime, SamhitaBackend

#: Micro-benchmark configuration for the heterogeneous-node studies.
HETERO_MB = MicrobenchParams(N=10, M=10, S=2, B=256,
                             allocation=Allocation.GLOBAL)


def _run_hetero(n_threads: int, bus, n_coprocessors: int = 1,
                placement: PlacementPolicy = PlacementPolicy.PACKED,
                spawn_fn=spawn_microbench, params=HETERO_MB):
    system = SamhitaSystem.hetero(n_coprocessors=n_coprocessors,
                                  config=SamhitaConfig(functional=False),
                                  bus=bus, placement=placement)
    rt = Runtime(SamhitaBackend(n_threads, system=system))
    spawn_fn(rt, params)
    return rt.run()


def hetero_figure(core_counts=(1, 2, 4, 8, 16, 32)) -> FigureResult:
    """Total kernel time on the Figure 1 machine: verbs proxy vs SCIF vs the
    paper's IB-cluster stand-in."""
    fr = FigureResult(
        figure="ext-hetero",
        title="Micro-benchmark on the heterogeneous node (Figure 1 machine)",
        xlabel="coprocessor threads",
        ylabel="kernel time (s)",
        meta={"params": HETERO_MB},
    )
    series = {
        "ib-cluster": fr.new_series("ib-cluster"),
        "verbs-proxy": fr.new_series("verbs-proxy"),
        "scif": fr.new_series("scif"),
    }
    for cores in core_counts:
        rt = Runtime("samhita", n_threads=cores,
                     config=SamhitaConfig(functional=False))
        spawn_microbench(rt, HETERO_MB)
        series["ib-cluster"].add(cores, rt.run().max_total_time)
        series["verbs-proxy"].add(
            cores, _run_hetero(cores, verbs_proxy_link()).max_total_time)
        series["scif"].add(
            cores, _run_hetero(cores, scif_link()).max_total_time)
    return fr


def multi_coprocessor_figure(core_counts=(4, 8, 16, 32)) -> FigureResult:
    """Does a second coprocessor (a second PCIe bus) help?"""
    fr = FigureResult(
        figure="ext-multimic",
        title="One vs two coprocessors, packed vs spread placement",
        xlabel="coprocessor threads",
        ylabel="kernel time (s)",
        meta={"params": HETERO_MB},
    )
    one = fr.new_series("1 mic")
    two = fr.new_series("2 mics (spread)")
    for cores in core_counts:
        one.add(cores, _run_hetero(cores, scif_link()).max_total_time)
        two.add(cores, _run_hetero(
            cores, scif_link(), n_coprocessors=2,
            placement=PlacementPolicy.ROUND_ROBIN).max_total_time)
    return fr


def pipeline_figure(consumer_counts=(1, 2, 4, 8),
                    params: PipelineParams | None = None) -> FigureResult:
    """Pipeline items/second vs consumer count on both backends."""
    params = params or PipelineParams(items=64, capacity=8,
                                      work_per_item=20000)
    fr = FigureResult(
        figure="ext-pipeline",
        title="Producer/consumer pipeline throughput",
        xlabel="consumers",
        ylabel="items per second (virtual)",
        meta={"params": params},
    )
    for backend in ("pthreads", "samhita"):
        series = fr.new_series(backend)
        for consumers in consumer_counts:
            threads = 1 + consumers
            if backend == "pthreads" and threads > 8:
                continue
            rt = Runtime(backend, n_threads=threads, **(
                {"functional": False} if backend == "pthreads"
                else {"config": SamhitaConfig(functional=False)}))
            spawn_pipeline(rt, params)
            result = rt.run()
            series.add(consumers, params.items / result.elapsed)
    return fr

