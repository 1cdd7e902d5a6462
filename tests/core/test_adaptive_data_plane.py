"""End-to-end checks of the adaptive software-cache data plane.

The adaptive configuration (stride prefetch + batched line fetches) must be
a pure *timing* optimization: the computed data is identical to the compat
path, only the protocol round-trip count changes. These tests run the smoke
Jacobi cell (the same one ``golden_run.json`` pins) in both modes and
compare data, counters, and the fetch-reduction the issue gates on.
"""

import hashlib

import pytest

from repro.core.params import PrefetchPolicy, SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.kernels.jacobi import JacobiParams, spawn_jacobi

PARAMS = JacobiParams(rows=64, cols=256, iterations=3, collect_result=True)
N_THREADS = 4


def _run(config):
    return run_workload_direct("samhita", N_THREADS, spawn_jacobi, PARAMS,
                               functional=True, config=config)


def _grid_digest(result):
    gdiff, grid = result.threads[0].value
    return gdiff, hashlib.sha256(grid.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def compat():
    return _run(SamhitaConfig.compat_cache(functional=True))


@pytest.fixture(scope="module")
def adaptive():
    return _run(SamhitaConfig.adaptive_cache(functional=True))


class TestFunctionalIdentity:
    def test_adaptive_computes_identical_data(self, compat, adaptive):
        assert _grid_digest(adaptive) == _grid_digest(compat)

    def test_default_config_matches_compat_data(self, compat):
        default = _run(SamhitaConfig(functional=True))
        assert _grid_digest(default) == _grid_digest(compat)

    def test_compat_mode_is_bit_identical_to_default_timing(self, compat):
        # The default data plane must not move a single timestamp relative
        # to the compat preset beyond what its named knobs change.
        # batched_round_trips is held at compat's value: the batched
        # protocol model changes timing by design (its own off-gate is
        # pinned by --check-batched-rt and the rtbatch property tests).
        default = _run(SamhitaConfig(functional=True,
                                     batched_round_trips=False))
        assert default.elapsed == compat.elapsed
        assert ({t: r.clock.total for t, r in default.threads.items()}
                == {t: r.clock.total for t, r in compat.threads.items()})


class TestFetchReduction:
    def test_batching_collapses_round_trips(self, compat, adaptive):
        before = compat.stats["compute_servers"]["fetch_requests"]
        after = adaptive.stats["compute_servers"]["fetch_requests"]
        assert before > 0
        # The issue's acceptance gate: >= 20% fewer remote line fetches.
        assert after <= 0.8 * before

    def test_adaptive_uses_batched_path(self, compat, adaptive):
        cs = adaptive.stats["compute_servers"]
        assert cs.get("batched_line_fetches", 0) > 0
        assert compat.stats["compute_servers"].get("batched_line_fetches", 0) == 0

    def test_adaptive_schedules_no_more_events(self, compat, adaptive):
        assert (adaptive.stats["engine"]["scheduled_events"]
                <= compat.stats["engine"]["scheduled_events"])


class TestPrefetchReporting:
    def test_prefetch_namespace_is_merged(self, adaptive):
        ns = adaptive.stats["prefetch"]
        assert "prefetch_installs" in ns or "prefetch_waits" in ns

    def test_accuracy_meets_gate_when_speculating(self, adaptive):
        ns = adaptive.stats["prefetch"]
        installs = ns.get("prefetch_installs", 0)
        if installs:
            assert ns["prefetch_accuracy"] >= 0.6
            assert ns["prefetch_accuracy"] == ns["prefetch_hits"] / installs

    def test_demand_misses_wait_on_pending_prefetches(self, compat, adaptive):
        # A demand miss that lands on an in-flight prefetched line must
        # block on the existing fetch (one wire transfer), not start a
        # second one -- counted as prefetch_waits on either data plane.
        for result in (compat, adaptive):
            assert result.stats["prefetch"]["prefetch_waits"] > 0

    def test_compat_accuracy_reported_from_adjacent_prefetch(self, compat):
        ns = compat.stats["prefetch"]
        assert ns.get("prefetch_installs", 0) > 0
        assert 0.0 <= ns["prefetch_accuracy"] <= 1.0


class TestConfigSurface:
    def test_adaptive_cache_knobs(self):
        cfg = SamhitaConfig.adaptive_cache()
        assert cfg.prefetch_policy.mode == "stride"
        assert cfg.batch_line_fetches

    def test_compat_cache_knobs(self):
        cfg = SamhitaConfig.compat_cache()
        assert cfg.prefetch_policy.mode == "adjacent"
        assert not cfg.batch_line_fetches

    def test_victim_selection_is_not_configurable(self):
        # One implementation (column selection in SoftwareCache), pinned to
        # the reference model by tests/property/test_cache_equivalence.py.
        import dataclasses
        fields = {f.name for f in dataclasses.fields(SamhitaConfig)}
        assert "eviction_impl" not in fields
        with pytest.raises(TypeError):
            SamhitaConfig(eviction_impl="sorted")

    def test_prefetch_none_disables_speculation(self):
        cfg = SamhitaConfig(functional=True,
                            prefetch=PrefetchPolicy(mode="none"))
        result = run_workload_direct("samhita", N_THREADS, spawn_jacobi,
                                     PARAMS, functional=True, config=cfg)
        assert result.stats["caches"].get("prefetch_installs", 0) == 0
        assert _grid_digest(result)[0] == pytest.approx(7.8125)
