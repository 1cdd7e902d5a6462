"""Extended experiments beyond the paper's Figures 3-13.

The paper's evaluation ran on a cluster *standing in* for the heterogeneous
node it actually targets (Figure 1), and §V sketches what the real port
would need. These experiments run the workloads on that target machine and
on the extension kernels -- the studies the paper says it is "currently
working on".

* :func:`hetero_figure` -- the micro-benchmark on the host+coprocessor
  machine, comparing the verbs-proxy and SCIF paths against the IB-cluster
  stand-in at matched thread counts (§V quantified).
* :func:`multi_coprocessor_figure` -- thread scaling across 1 vs 2
  coprocessors with packed vs spread placement (PCIe bus contention).
* :func:`matmul_figure` -- read-broadcast scaling (best case for
  demand-paged DSM).
* :func:`pipeline_figure` -- condvar pipeline throughput vs consumer count.
* :func:`sor_figure`, :func:`taskfarm_figure`, :func:`interconnect_era_figure`
  -- fragmented-diff SOR, a dynamic task farm, and one workload across
  three decades of interconnects.

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
    MatmulParams,
    MicrobenchParams,
    PipelineParams,
    spawn_matmul,
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


def matmul_figure(core_counts=(1, 2, 4, 8, 16, 32),
                  params: MatmulParams | None = None) -> FigureResult:
    """Strong scaling of the read-broadcast matmul on both backends."""
    params = params or MatmulParams(m=512, k=512, n=512)
    fr = FigureResult(
        figure="ext-matmul",
        title="Blocked matmul speedup (read-broadcast sharing)",
        xlabel="number of cores",
        ylabel="speed-up (vs 1-core Pthreads)",
        meta={"params": params},
    )
    base_rt = Runtime("pthreads", n_threads=1, functional=False)
    spawn_matmul(base_rt, params)
    base = base_rt.run().max_total_time
    pth = fr.new_series("pthreads")
    for cores in (c for c in core_counts if c <= 8):
        rt = Runtime("pthreads", n_threads=cores, functional=False)
        spawn_matmul(rt, params)
        pth.add(cores, base / rt.run().max_total_time)
    smh = fr.new_series("samhita")
    for cores in core_counts:
        rt = Runtime("samhita", n_threads=cores,
                     config=SamhitaConfig(functional=False))
        spawn_matmul(rt, params)
        smh.add(cores, base / rt.run().max_total_time)
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


def sor_figure(core_counts=(1, 2, 4, 8, 16, 32),
               params=None) -> FigureResult:
    """Red-black SOR strong scaling: fragmented diffs, two barriers/iter."""
    from repro.kernels import SORParams, spawn_sor
    params = params or SORParams(rows=1024, cols=2048, iterations=4)
    fr = FigureResult(
        figure="ext-sor",
        title="Red-black SOR speedup (fragmented-diff sharing)",
        xlabel="number of cores",
        ylabel="speed-up (vs 1-core Pthreads)",
        meta={"params": params},
    )
    base_rt = Runtime("pthreads", n_threads=1, functional=False)
    spawn_sor(base_rt, params)
    base = base_rt.run().max_total_time
    pth = fr.new_series("pthreads")
    for cores in (c for c in core_counts if c <= 8):
        rt = Runtime("pthreads", n_threads=cores, functional=False)
        spawn_sor(rt, params)
        pth.add(cores, base / rt.run().max_total_time)
    smh = fr.new_series("samhita")
    for cores in core_counts:
        rt = Runtime("samhita", n_threads=cores,
                     config=SamhitaConfig(functional=False))
        spawn_sor(rt, params)
        smh.add(cores, base / rt.run().max_total_time)
    return fr


def taskfarm_figure(core_counts=(2, 4, 8, 16)) -> FigureResult:
    """Dynamic vs static scheduling under clustered imbalance, per backend."""
    from repro.kernels import TaskFarmParams, spawn_taskfarm
    fr = FigureResult(
        figure="ext-taskfarm",
        title="Task farm: dynamic vs static under imbalance",
        xlabel="number of cores",
        ylabel="kernel time (s)",
        meta={},
    )
    for dynamic in (True, False):
        params = TaskFarmParams(n_tasks=64, base_cost=20_000, skew=400_000,
                                heavy_every=8, dynamic=dynamic)
        for backend in ("pthreads", "samhita"):
            label = f"{backend[:3]}-{'dyn' if dynamic else 'static'}"
            series = fr.new_series(label)
            for cores in core_counts:
                if backend == "pthreads" and cores > 8:
                    continue
                rt = Runtime(backend, n_threads=cores, **(
                    {"functional": False} if backend == "pthreads"
                    else {"config": SamhitaConfig(functional=False)}))
                spawn_taskfarm(rt, params)
                series.add(cores, rt.run().max_total_time)
    return fr


def interconnect_era_figure(core_counts=(8, 32)) -> FigureResult:
    """The paper's thesis across three decades of interconnects: the same
    strided workload over 1 GbE (1990s DSM era), Myrinet-2000 (early 2000s),
    QDR IB (the paper's 2013 testbed) and HDR IB (2020s), each against a
    node of its own era.

    The sweep reproduces the paper's history (overhead collapses from
    Ethernet to InfiniBand) and exposes the *latency wall* going forward:
    the 2020s point is worse than 2013 in relative terms because cores got
    ~3x faster while network latency only halved -- bandwidth-era fabric
    improvements don't help a latency-dominated fault path."""
    from repro.hardware.specs import MODERN_NODE, PENRYN_NODE
    from repro.interconnect import gigabit_ethernet, ib_hdr, ib_qdr, myrinet_2000

    eras = [
        ("1gbe-1990s", gigabit_ethernet(), PENRYN_NODE),
        ("myrinet-2000s", myrinet_2000(), PENRYN_NODE),
        ("qdr-2013", ib_qdr(), PENRYN_NODE),
        ("hdr-2020s", ib_hdr(), MODERN_NODE),
    ]
    params = MicrobenchParams(N=10, M=10, S=2, B=256,
                              allocation=Allocation.GLOBAL_STRIDED)
    fr = FigureResult(
        figure="ext-eras",
        title="DSM overhead across interconnect eras (strided workload)",
        xlabel="threads",
        ylabel="DSM overhead factor (samhita compute / pthreads compute)",
        meta={"params": params},
    )
    for label, link, node in eras:
        series = fr.new_series(label)
        for cores in core_counts:
            pth_cores = min(cores, node.cores)
            base_rt = Runtime("pthreads", n_threads=pth_cores, node=node,
                              functional=False)
            spawn_microbench(base_rt, params)
            base = base_rt.run().mean_compute_time
            rt = Runtime("samhita", n_threads=cores,
                         config=SamhitaConfig(functional=False),
                         node=node, fabric_link=link)
            spawn_microbench(rt, params)
            series.add(cores, rt.run().mean_compute_time / base)
    return fr

