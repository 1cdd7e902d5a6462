"""Chaos: gray failures (slow servers, jitter storms) on the replicated
two-server deployment keep data bit-identical.

A gray failure changes *timing only*: a 10x-slow memory server or a
Pareto-tailed jitter storm must never change final bytes, must replay
exactly, and -- under the slow server -- must stay inside a 2x elapsed
envelope of the fault-free run (1.31x Jacobi, 1.65x MD measured). Nothing
but the plain retry loop is involved: the tail-tolerance knobs that once
rode these profiles each lost to this deployment (DESIGN.md section 15)."""

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
    if profile == "slow_server":
        assert result.elapsed <= 2.0 * jacobi_baseline[2]
    else:
        assert result.stats["faults"].get("jitter_stalls", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["slow_server", "jitter_storm"])
def test_md_survives_gray_failures(md_baseline, profile, seed):
    plan = grayfail_profiles(seed)[profile]
    digest, result = _run_md(SamhitaConfig.grayfail(faults=plan))
    assert digest == md_baseline[0]
    if profile == "slow_server":
        assert result.elapsed <= 2.0 * md_baseline[1]
    else:
        assert result.stats["faults"].get("jitter_stalls", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
def test_gray_failures_replay_bit_identically(seed):
    """Same plan, same seed: the whole gray trajectory replays exactly."""
    plan = grayfail_profiles(seed)["slow_server"]
    first = _run_jacobi(SamhitaConfig.grayfail(faults=plan))
    second = _run_jacobi(SamhitaConfig.grayfail(faults=plan))
    assert first[:2] == second[:2]
    assert first[2].elapsed == second[2].elapsed
    assert first[2].stats["faults"] == second[2].stats["faults"]


def test_fault_storm_slow_cell_is_pinned():
    """The slow-server cell of the benchmark suite's ``fault_storm``,
    pinned: the grid equals the sequential reference and the 10x-slow home
    costs exactly what the plain retry loop pays for it. Re-pinned when a
    fault's trips to its two homes came to fly together (1.32x the
    fault-free cell's 0.005033405199999972)."""
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
    assert result.stats["compute_servers"]["fetch_requests"] == 122
    assert result.elapsed == 0.006646670699999856
