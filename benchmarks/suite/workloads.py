"""The five workloads: what each runs, and how each checks its outputs.

A workload is built once per process from the seed (``build`` makes the
parameters and the sequential references -- that is the set-up cost) and
then executed pass after pass. ``run_pass`` receives a
:class:`benchmarks.suite.harness.Pass`, through which every cell runs and
every check is counted; the program only ever sees generated parameters.

Cell sizes are part of the benchmark's definition: changing one redefines
every number measured before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import SamhitaConfig
from repro.experiments import figures
from repro.experiments.__main__ import _QUICK_KWARGS
from repro.experiments.parallel import activate
from repro.faults import drop_storm, jitter_storm, latency_storm, slow_server
from repro.kernels import (
    Allocation,
    JacobiParams,
    MDParams,
    MicrobenchParams,
    jacobi_reference,
    md_reference,
    microbench_reference,
    spawn_jacobi,
    spawn_md,
    spawn_microbench,
)


def fault_seeds(seed: int) -> tuple[int, int, int]:
    """``S, 2S+1, 4S+3``: 11 gives the chaos suite's 11 / 23 / 47."""
    return seed, 2 * seed + 1, 4 * seed + 3


# -- smoke_campaign ----------------------------------------------------------

def _check_fig03(fr) -> None:
    """``bench_fig03``'s shape assertions at the --quick core counts."""
    for M in _QUICK_KWARGS["fig03"]["m_values"]:
        smh = fr.series[f"smh, M={M}"]
        for cores in smh.xs:
            assert smh.y_at(cores) < 1.6, (M, cores, smh.y_at(cores))
        assert abs(smh.y_at(1) - 1.0) < 0.1, (M, smh.y_at(1))


def _check_fig12(fr) -> None:
    """``bench_fig12``'s shape assertions at the --quick core counts."""
    pth, smh = fr.series["pthreads"], fr.series["samhita"]
    assert pth.y_at(4) > 3.0, pth.y_at(4)
    assert smh.y_at(4) > 0.55 * pth.y_at(4), (smh.y_at(4), pth.y_at(4))
    assert smh.y_at(16) > smh.y_at(4) > smh.y_at(1), smh.points


class SmokeCampaign:
    name = "smoke_campaign"
    why = ("fig03+fig12 --quick, serial: the ROADMAP's user-felt number; "
           "264k timing-mode page touches stream through memory.cache")

    def build(self, seed: int):
        return None

    def run_pass(self, built, p) -> None:
        with activate(p.executor()):
            fr03 = figures.fig03(**_QUICK_KWARGS["fig03"])
            fr12 = figures.fig12(**_QUICK_KWARGS["fig12"])
        p.check("fig03.shape", lambda: _check_fig03(fr03))
        p.check("fig12.shape", lambda: _check_fig12(fr12))


# -- sync_storm --------------------------------------------------------------

@dataclass(frozen=True)
class LockBarrierParams:
    rounds: int = 50


def lock_barrier_thread(ctx, locks, bar, params: LockBarrierParams):
    """Data-free: a private lock and a global barrier per round."""
    own = locks[ctx.tid]
    for _ in range(params.rounds):
        yield from ctx.lock(own)
        yield from ctx.compute(1)
        yield from ctx.unlock(own)
        yield from ctx.barrier(bar)


def spawn_lock_barrier(rt, params: LockBarrierParams) -> None:
    locks = [rt.create_lock() for _ in range(rt.n_threads)]
    rt.spawn_all(lock_barrier_thread, locks, rt.create_barrier(), params)


class SyncStorm:
    name = "sync_storm"
    why = ("one contended mutex+barrier per 2 KB at P=64, plus 256 threads "
           "on 16 manager shards: engine and control plane, almost no cache")

    def build(self, seed: int):
        return None

    def run_pass(self, built, p) -> None:
        p.cell("samhita", 64, spawn_microbench,
               MicrobenchParams(N=100, M=1, S=1, allocation=Allocation.LOCAL))
        # Data-free on purpose: a page fetch under the sharded control
        # plane crashes in timing mode (README, known baseline fact (c)).
        p.cell("samhita", 256, spawn_lock_barrier, LockBarrierParams(),
               config=SamhitaConfig.sharded_control_plane(16))


# -- strided_share -----------------------------------------------------------

def _check_sum(result, expected: float) -> None:
    for tid, thread in result.threads.items():
        assert np.isclose(thread.value, expected, rtol=1e-9, atol=0.0), (
            tid, thread.value, expected)


class StridedShare:
    name = "strided_share"
    why = ("write-sharing at P=32: invalidation, refetch, twins and diffs "
           "in the same cache layer that smoke_campaign only streams through")

    _FUNCTIONAL = MicrobenchParams(N=10, M=10, S=4,
                                   allocation=Allocation.GLOBAL_STRIDED)

    def build(self, seed: int):
        return microbench_reference(self._FUNCTIONAL, 8)

    def run_pass(self, built, p) -> None:
        for allocation in (Allocation.GLOBAL_STRIDED, Allocation.GLOBAL):
            p.cell("samhita", 32, spawn_microbench,
                   MicrobenchParams(N=10, M=10, S=8, allocation=allocation))
        p.cell("samhita", 8, spawn_microbench, self._FUNCTIONAL,
               functional=True, verify=lambda r: _check_sum(r, built))


# -- functional_pressure -----------------------------------------------------

def _check_grid(result, reference) -> None:
    ref_gdiff, ref_grid = reference
    gdiff, grid = result.threads[0].value
    assert gdiff == ref_gdiff, (gdiff, ref_gdiff)
    assert grid.tobytes() == ref_grid.tobytes(), "final grid differs"


def _check_energies(result, reference) -> None:
    for tid, thread in result.threads.items():
        assert np.allclose(thread.value, reference, rtol=1e-9, atol=0.0), tid


class FunctionalPressure:
    name = "functional_pressure"
    why = ("real bytes: Jacobi, MD and a working set 4x the cache; the only "
           "workload with evictions, write-back and real twin/diff bytes")

    _JACOBI = JacobiParams(rows=512, cols=1024, iterations=10,
                           collect_result=True)
    _PRESSURE = MicrobenchParams(N=3, M=2, S=128, allocation=Allocation.LOCAL)

    def build(self, seed: int):
        md = MDParams(n_particles=1024, steps=5, seed=seed)
        return {"md": md,
                "jacobi_ref": jacobi_reference(self._JACOBI),
                "pressure_ref": microbench_reference(self._PRESSURE, 4),
                "md_ref": md_reference(md)}

    def run_pass(self, built, p) -> None:
        p.cell("samhita", 8, spawn_jacobi, self._JACOBI, functional=True,
               verify=lambda r: _check_grid(r, built["jacobi_ref"]))
        p.cell("samhita", 4, spawn_microbench, self._PRESSURE, functional=True,
               config=SamhitaConfig(cache_capacity_pages=32),
               verify=lambda r: _check_sum(r, built["pressure_ref"]))
        p.cell("samhita", 8, spawn_md, built["md"], functional=True,
               verify=lambda r: _check_energies(r, built["md_ref"]))


# -- fault_storm -------------------------------------------------------------

class FaultStorm:
    name = "fault_storm"
    why = ("functional Jacobi on the grayfail deployment, fault-free and under "
           "four fault profiles, x three seeds: the only path through "
           "repro.faults")

    _JACOBI = JacobiParams(rows=256, cols=512, iterations=10,
                           collect_result=True)

    def build(self, seed: int):
        plans = []
        for s in fault_seeds(seed):
            # The fault-free cell of each seed is the base its storms'
            # simulated cost is read against.
            plans += [None,
                      slow_server(s, "node1", factor=10.0, start=2e-4,
                                  duration=1.0),
                      drop_storm(s), latency_storm(s), jitter_storm(s)]
        return {"plans": plans, "ref": jacobi_reference(self._JACOBI)}

    def run_pass(self, built, p) -> None:
        for plan in built["plans"]:
            p.cell("samhita", 8, spawn_jacobi, self._JACOBI, functional=True,
                   config=SamhitaConfig.grayfail(faults=plan),
                   verify=lambda r: _check_grid(r, built["ref"]))


WORKLOADS = {w.name: w for w in (SmokeCampaign(), SyncStorm(), StridedShare(),
                                 FunctionalPressure(), FaultStorm())}
