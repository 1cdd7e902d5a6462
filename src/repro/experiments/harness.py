"""Workload execution helpers for the figure sweeps.

Experiments default to *timing mode* (no functional data plane), so that
large paper-scale workloads (32 threads, thousands of rows) stay cheap to
run. Its clocks and traffic are not those of functional mode: at paper
scale 9 of the 11 figures differ between the modes, by up to 26 % (fig12
at 32 threads), in both directions. The two known causes:

* timing mode never charges ``TWIN_CREATE_TIME``;
* timing mode ships every written byte as a diff, where functional mode
  ships only the bytes that changed.

The ROADMAP's "one data plane" item is where the modes are to be made one.
"""

from __future__ import annotations

from typing import Callable

from repro.core.params import SamhitaConfig
from repro.experiments import parallel
from repro.runtime import Runtime
from repro.runtime.results import RunResult

#: The paper's thread-count axes: Pthreads up to one 8-core node, Samhita up
#: to four 8-core compute nodes.
PTHREAD_CORES = (1, 2, 4, 8)
SAMHITA_CORES = (1, 2, 4, 8, 16, 32)


def run_workload(backend: str, n_threads: int, spawn_fn: Callable, params,
                 functional: bool = False, config: SamhitaConfig | None = None,
                 **backend_kwargs) -> RunResult:
    """Run one (backend, thread count, workload) cell and return its result.

    ``spawn_fn(rt, params)`` must create handles and spawn all threads (the
    kernels' ``spawn_*`` functions have this signature).

    When a :mod:`repro.experiments.parallel` executor is active, the cell is
    routed through it (result cache + optional worker pool); otherwise it
    runs inline, exactly as before.
    """
    if not backend_kwargs:
        executor = parallel.get_active()
        if executor is not None:
            return executor.run(parallel.CellSpec(
                backend, n_threads, spawn_fn, params, functional, config))
    return run_workload_direct(backend, n_threads, spawn_fn, params,
                               functional=functional, config=config,
                               **backend_kwargs)


def run_workload_direct(backend: str, n_threads: int, spawn_fn: Callable,
                        params, functional: bool = False,
                        config: SamhitaConfig | None = None,
                        **backend_kwargs) -> RunResult:
    """The uncached, in-process cell execution (also the pool worker body)."""
    if backend == "samhita":
        cfg = config or SamhitaConfig()
        if cfg.functional != functional:
            cfg = cfg.with_(functional=functional)
        rt = Runtime("samhita", n_threads=n_threads, config=cfg, **backend_kwargs)
    else:
        rt = Runtime("pthreads", n_threads=n_threads, functional=functional,
                     **backend_kwargs)
    spawn_fn(rt, params)
    try:
        return rt.run()
    finally:
        # The backend is throwaway here: breaking its reference cycles lets
        # the whole run graph die by refcount, so campaign loops never build
        # up cyclic garbage for the (deferred) collector to chase.
        rt.backend.dispose()


def sweep(backend: str, core_counts, spawn_fn, params_fn, metric,
          functional: bool = False, config: SamhitaConfig | None = None,
          **backend_kwargs) -> list[tuple[int, float]]:
    """Run a thread-count sweep; returns [(cores, metric(result))].

    ``params_fn(cores)`` builds the workload parameters for each cell (strong
    scaling usually ignores ``cores``); ``metric(result)`` extracts the
    plotted value.

    With an active executor the whole sweep is submitted as one batch, so a
    worker pool runs the cells concurrently; the metric is applied in the
    caller in submission order, keeping the points deterministic.
    """
    if not backend_kwargs:
        executor = parallel.get_active()
        if executor is not None:
            specs = [parallel.CellSpec(backend, cores, spawn_fn,
                                       params_fn(cores), functional, config)
                     for cores in core_counts]
            results = executor.map(specs)
            return [(cores, metric(result))
                    for cores, result in zip(core_counts, results)]
    points = []
    for cores in core_counts:
        result = run_workload(backend, cores, spawn_fn, params_fn(cores),
                              functional=functional, config=config,
                              **backend_kwargs)
        points.append((cores, metric(result)))
    return points
