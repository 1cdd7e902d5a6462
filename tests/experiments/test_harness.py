"""Tests for the experiment harness and result containers."""

import pytest

from repro.core import SamhitaConfig
from repro.experiments import FigureResult, Series, run_workload, sweep
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench

PARAMS = MicrobenchParams(N=2, M=1, S=1, B=64)


class TestRunWorkload:
    def test_runs_on_both_backends(self):
        for backend in ("pthreads", "samhita"):
            result = run_workload(backend, 2, spawn_microbench, PARAMS)
            assert result.n_threads == 2
            assert result.elapsed > 0

    def test_defaults_to_timing_mode(self):
        result = run_workload("samhita", 1, spawn_microbench, PARAMS)
        assert result.value_of(0) is None  # timing mode returns no data

    def test_functional_flag(self):
        result = run_workload("samhita", 1, spawn_microbench, PARAMS,
                              functional=True)
        assert result.value_of(0) is not None

    def test_config_override(self):
        config = SamhitaConfig(prefetch=False)
        result = run_workload("samhita", 1, spawn_microbench, PARAMS,
                              config=config)
        assert result.stats["compute_servers"].get("speculative_riders", 0) == 0


class TestSweep:
    def test_returns_point_per_core_count(self):
        points = sweep("samhita", (1, 2), spawn_microbench,
                       lambda c: PARAMS, lambda r: r.mean_compute_time)
        assert [c for c, _ in points] == [1, 2]
        assert all(v > 0 for _, v in points)

    def test_params_fn_receives_cores(self):
        seen = []

        def params_fn(cores):
            seen.append(cores)
            return PARAMS

        sweep("pthreads", (1, 2, 4), spawn_microbench, params_fn,
              lambda r: r.elapsed)
        assert seen == [1, 2, 4]


class TestResultContainers:
    def test_series_accessors(self):
        s = Series("x")
        s.add(1, 10.0)
        s.add(2, 20.0)
        assert s.xs == [1, 2]
        assert s.ys == [10.0, 20.0]
        assert s.y_at(2) == 20.0
        with pytest.raises(KeyError):
            s.y_at(3)

    def test_figure_xs_union(self):
        fr = FigureResult("f", "t", "x", "y")
        a = fr.new_series("a")
        a.add(1, 0.0)
        a.add(4, 0.0)
        b = fr.new_series("b")
        b.add(2, 0.0)
        assert fr.xs == [1, 2, 4]
        assert fr["a"] is a
