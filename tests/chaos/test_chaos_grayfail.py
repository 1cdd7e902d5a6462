"""Chaos: gray failures (slow servers, jitter storms) under the grayfail
deployment keep data bit-identical while the resilience machinery works.

A gray failure changes *timing only*: a 10x-slow memory server or a
Pareto-tailed jitter storm must never change final bytes. On top of data
identity these cases assert the machinery actually ran -- Jacobi's
neighbor reads produce owner-free bulk trips that hedge to the backup
replica and shed under admission control until breakers open; MD is
ownership-dominated (each thread writes its own particle block), so its
trips are pinned to the true home and its resilience comes from
admission control and shed backoff alone (hedges are a read-side
mechanism; see DESIGN.md section 15)."""

import hashlib

import numpy as np
import pytest

from repro.core.params import SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.faults import jitter_storm, slow_server
from repro.kernels.jacobi import JacobiParams, jacobi_reference, spawn_jacobi
from repro.kernels.md import MDParams, spawn_md

from tests.chaos.conftest import chaos_seeds

pytestmark = pytest.mark.chaos

N_THREADS = 4
JACOBI = JacobiParams(rows=64, cols=256, iterations=6, collect_result=True)
MD = MDParams(n_particles=48, steps=3, collect_energy=False,
              collect_state=True)


def grayfail_profiles(seed: int) -> dict:
    """The two gray-failure schedules of the acceptance matrix: one
    memory server serving 10x slow for the whole run, and heavy-tailed
    latency jitter on every component."""
    return {
        "slow_server": slow_server(seed, "node1", factor=10.0,
                                   start=2e-4, duration=1.0),
        "jitter_storm": jitter_storm(seed),
    }


def _run_jacobi(config=None):
    result = run_workload_direct("samhita", N_THREADS, spawn_jacobi,
                                 JACOBI, functional=True, config=config)
    gdiff, grid = result.threads[0].value
    return gdiff, hashlib.sha256(grid.tobytes()).hexdigest(), result


def _run_md(config=None):
    result = run_workload_direct("samhita", N_THREADS, spawn_md, MD,
                                 functional=True, config=config)
    _energies, pos, vel = result.threads[0].value
    return hashlib.sha256(pos.tobytes() + vel.tobytes()).hexdigest(), result


@pytest.fixture(scope="module")
def jacobi_baseline():
    gdiff, digest, result = _run_jacobi(SamhitaConfig.grayfail())
    return gdiff, digest, result.elapsed


@pytest.fixture(scope="module")
def md_baseline():
    digest, result = _run_md(SamhitaConfig.grayfail())
    return digest, result.elapsed


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["slow_server", "jitter_storm"])
def test_jacobi_survives_gray_failures(jacobi_baseline, profile, seed):
    plan = grayfail_profiles(seed)[profile]
    gdiff, digest, result = _run_jacobi(SamhitaConfig.grayfail(faults=plan))
    assert gdiff == jacobi_baseline[0]
    assert digest == jacobi_baseline[1]
    hedges = result.stats["hedges"]
    assert hedges.get("hedges_issued", 0) > 0
    assert hedges.get("sheds", 0) > 0
    if profile == "slow_server":
        # The acceptance counters: hedges won against the slow primary,
        # breakers opened once the shed budget ran dry, and the storm
        # cost at most 2x the fault-free elapsed time.
        assert hedges.get("hedges_won", 0) > 0
        assert hedges.get("breaker_opens", 0) > 0
        assert result.elapsed <= 2.0 * jacobi_baseline[2]
    else:
        assert result.stats["faults"].get("jitter_stalls", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["slow_server", "jitter_storm"])
def test_md_survives_gray_failures(md_baseline, profile, seed):
    plan = grayfail_profiles(seed)[profile]
    digest, result = _run_md(SamhitaConfig.grayfail(faults=plan))
    assert digest == md_baseline[0]
    hedges = result.stats["hedges"]
    assert hedges.get("sheds", 0) > 0
    if profile == "jitter_storm":
        assert result.stats["faults"].get("jitter_stalls", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
def test_gray_failures_replay_bit_identically(seed):
    """Same plan, same seed: the whole gray trajectory replays exactly,
    hedge races and all."""
    plan = grayfail_profiles(seed)["slow_server"]
    first = _run_jacobi(SamhitaConfig.grayfail(faults=plan))
    second = _run_jacobi(SamhitaConfig.grayfail(faults=plan))
    assert first[:2] == second[:2]
    assert first[2].elapsed == second[2].elapsed
    assert first[2].stats["hedges"] == second[2].stats["hedges"]


def test_unhedged_storm_keeps_data_identical(jacobi_baseline):
    """Hedging off under the same storm: slower tail, same bytes."""
    plan = grayfail_profiles(11)["slow_server"]
    gdiff, digest, _result = _run_jacobi(
        SamhitaConfig.grayfail(faults=plan, hedged_fetches=False))
    assert (gdiff, digest) == jacobi_baseline[:2]


def test_open_breaker_degrades_to_the_per_page_fetch():
    """The fault_storm cell of the benchmark suite, pinned: with the slow
    primary's breaker open and the backup ineligible (owned pages), a trip
    degrades to the synchronous per-page fetch -- the one caller
    ``ComputeServer._fetch_pages`` / ``MemoryServer.serve_fetch`` still
    have. Values recorded at PR 15."""
    params = JacobiParams(rows=256, cols=512, iterations=10,
                          collect_result=True)
    plan = grayfail_profiles(11)["slow_server"]
    result = run_workload_direct("samhita", 8, spawn_jacobi, params,
                                 functional=True,
                                 config=SamhitaConfig.grayfail(faults=plan))
    gdiff, grid = result.threads[0].value
    ref_gdiff, ref_grid = jacobi_reference(params)
    assert gdiff == ref_gdiff
    assert np.array_equal(grid, ref_grid)
    hedges = result.stats["hedges"]
    assert hedges["breaker_degraded"] == 62
    assert hedges["breaker_reroutes"] == 8
    assert hedges["shed_backoffs"] == 123
    assert result.elapsed == 0.00901180079999981
