"""Run every workload and check the global protocol invariants afterwards."""

import pytest

from repro.core import SamhitaConfig
from repro.core.invariants import InvariantViolation, check_invariants
from repro.kernels import (
    Allocation,
    JacobiParams,
    MDParams,
    MicrobenchParams,
    PipelineParams,
    SORParams,
    TaskFarmParams,
    spawn_jacobi,
    spawn_md,
    spawn_microbench,
    spawn_pipeline,
    spawn_sor,
    spawn_taskfarm,
)
from repro.runtime import Runtime

WORKLOADS = {
    "microbench-strided": (spawn_microbench, MicrobenchParams(
        N=3, M=2, S=2, B=128, allocation=Allocation.GLOBAL_STRIDED)),
    "jacobi": (spawn_jacobi, JacobiParams(rows=16, cols=64, iterations=3)),
    "md": (spawn_md, MDParams(n_particles=24, steps=3)),
    "sor": (spawn_sor, SORParams(rows=14, cols=32, iterations=3)),
    "pipeline": (spawn_pipeline, PipelineParams(items=16, capacity=4)),
    "taskfarm": (spawn_taskfarm, TaskFarmParams(n_tasks=16, base_cost=500,
                                                skew=2000)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_regc_invariants_hold_after_every_workload(name):
    spawn_fn, params = WORKLOADS[name]
    rt = Runtime("samhita", n_threads=4)
    spawn_fn(rt, params)
    rt.run()
    assert check_invariants(rt.backend.system, quiescent=True) > 0


@pytest.mark.parametrize("name", ["microbench-strided", "jacobi"])
def test_ivy_invariants_hold(name):
    spawn_fn, params = WORKLOADS[name]
    rt = Runtime("samhita", n_threads=4,
                 config=SamhitaConfig(coherence="ivy"))
    spawn_fn(rt, params)
    rt.run()
    assert check_invariants(rt.backend.system, quiescent=True) > 0


def test_invariants_hold_under_cache_pressure():
    config = SamhitaConfig(cache_capacity_pages=8,
                           prefetch=False)
    rt = Runtime("samhita", n_threads=2, config=config)
    spawn_fn, params = WORKLOADS["microbench-strided"]
    spawn_fn(rt, params)
    rt.run()
    assert check_invariants(rt.backend.system, quiescent=True) > 0


def test_checker_catches_planted_violations():
    rt = Runtime("samhita", n_threads=2)
    spawn_fn, params = WORKLOADS["jacobi"]
    spawn_fn(rt, params)
    rt.run()
    system = rt.backend.system
    # Plant a bogus ownership record: owner without dirty data.
    some_clean_page = next(
        p for p, e in system.cache_of(0).entries.items() if not e.is_dirty)
    system.directory.record_owner(some_clean_page, 0)
    with pytest.raises(InvariantViolation):
        check_invariants(system, quiescent=True)
    system.directory.clear_owner(some_clean_page)
    assert check_invariants(system, quiescent=True) > 0
