"""End-to-end checks of the adaptive software-cache data plane.

The adaptive configuration (stride prefetch + plan look-ahead) must be a
pure *timing* optimization: the computed data is identical to the default
data plane's. These tests run the canonical functional Jacobi cell under
both and compare data and counters; the per-line protocol that used to be
the comparison's other side survives as the recorded numbers in
:data:`PER_LINE_PR8`.
"""

import dataclasses
import hashlib
import inspect
import pathlib

import pytest

import repro
from repro.core.params import PrefetchPolicy, SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.sim.engine import Engine
from tests.core.conftest import run_threads

PARAMS = JacobiParams(rows=64, cols=256, iterations=3, collect_result=True)
N_THREADS = 4


def _run(config):
    return run_workload_direct("samhita", N_THREADS, spawn_jacobi, PARAMS,
                               functional=True, config=config)


def _grid_digest(result):
    gdiff, grid = result.threads[0].value
    return gdiff, hashlib.sha256(grid.tobytes()).hexdigest()


#: This cell under the per-line protocol of the PR 8 tree (one request per
#: missed line, adjacent-line prefetch as its own daemon trip).
PER_LINE_PR8 = {
    "grid": (7.8125, "2b3e7a116b07bdfd16475c9584b7b7e1"
                     "8394155fdfc4cc67038985f54f9e34b2"),
    "fetch_requests": 82,
    "scheduled_events": 849,
}


@pytest.fixture(scope="module")
def default():
    return _run(SamhitaConfig(functional=True))


@pytest.fixture(scope="module")
def adaptive():
    return _run(SamhitaConfig.adaptive_cache(functional=True))


class TestFunctionalIdentity:
    def test_adaptive_computes_identical_data(self, default, adaptive):
        assert _grid_digest(adaptive) == _grid_digest(default)

    def test_default_config_matches_compat_data(self, default):
        assert _grid_digest(default) == PER_LINE_PR8["grid"]


class TestFetchReduction:
    def test_batching_collapses_round_trips(self, adaptive):
        after = adaptive.stats["compute_servers"]["fetch_requests"]
        assert 0 < after <= 0.8 * PER_LINE_PR8["fetch_requests"]

    def test_adaptive_uses_batched_path(self, adaptive):
        cs = adaptive.stats["compute_servers"]
        assert cs.get("batched_line_fetches", 0) > 0
        assert cs.get("plan_prefetches", 0) > 0

    def test_adaptive_schedules_no_more_events(self, adaptive):
        assert (adaptive.stats["engine"]["scheduled_events"]
                <= PER_LINE_PR8["scheduled_events"])


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

    def test_demand_misses_wait_on_pending_prefetches(self, adaptive):
        # A demand miss that lands on an in-flight prefetched line must
        # block on the existing fetch (one wire transfer), not start a
        # second one -- counted as prefetch_waits.
        assert adaptive.stats["prefetch"]["prefetch_waits"] > 0

    def test_compat_accuracy_reported_from_adjacent_prefetch(self, cluster2):
        # The default (adjacent-line) policy: a sequential scan installs
        # riders, and the report derives accuracy from the same counters.
        system, (t0, _) = cluster2
        line = system.config.layout.line_bytes

        def body():
            addr = yield from system.malloc(t0, 256 << 10)
            for off in range(0, 16 * line, line):
                yield from system.mem_read(t0, addr + off, 8)

        run_threads(system, [body()])
        ns = system.stats_report()["prefetch"]
        assert ns["prefetch_installs"] > 0
        assert ns["prefetch_accuracy"] == (ns["prefetch_hits"]
                                           / ns["prefetch_installs"])
        assert 0.0 < ns["prefetch_accuracy"] <= 1.0


class TestConfigSurface:
    def test_adaptive_cache_knobs(self):
        assert SamhitaConfig.adaptive_cache().prefetch.mode == "stride"
        assert SamhitaConfig().prefetch.mode == "adjacent"

    def test_victim_selection_is_not_configurable(self):
        # One implementation of each mechanism, no switch to a predecessor:
        # victim selection (column selection in SoftwareCache, pinned to
        # the reference model by tests/property/test_cache_equivalence.py),
        # the fault / prefetch / evict protocol (rtbatch), the engine, the
        # combining barrier arrival (``tree_barriers``) -- and no
        # tail-tolerance knob on top of the plain retry loop. The failure
        # detector's cadence is a pair of constants, not configuration.
        fields = {f.name for f in dataclasses.fields(SamhitaConfig)}
        assert len(fields) == 30
        for gone in ("eviction_impl", "batched_round_trips",
                     "batch_line_fetches", "prefetch_adjacent",
                     "adaptive_timeouts", "hedged_fetches", "hedge_quantile",
                     "retry_budget", "retry_budget_refill",
                     "breaker_cooldown", "admission_queue_limit",
                     "hierarchical_sync", "heartbeat_interval",
                     "heartbeat_misses"):
            assert gone not in fields
            with pytest.raises(TypeError):
                SamhitaConfig(**{gone: False})
        with pytest.raises(AttributeError):
            SamhitaConfig.compat_cache
        with pytest.raises(AttributeError):
            SamhitaConfig.grayfail_armed
        assert SamhitaConfig.grayfail() == SamhitaConfig(
            n_memory_servers=2, replication_factor=2)
        assert not inspect.signature(Engine).parameters
        src = pathlib.Path(repro.__file__).parent
        assert not [str(p) for p in src.rglob("*.py")
                    if "os.environ" in p.read_text()]

    def test_prefetch_none_disables_speculation(self):
        cfg = SamhitaConfig(functional=True,
                            prefetch=PrefetchPolicy(mode="none"))
        result = run_workload_direct("samhita", N_THREADS, spawn_jacobi,
                                     PARAMS, functional=True, config=cfg)
        assert result.stats["caches"].get("prefetch_installs", 0) == 0
        assert _grid_digest(result)[0] == pytest.approx(7.8125)
