"""The data plane's configuration surface and its prefetch reporting.

The canonical functional Jacobi cell computes the grid the per-line
protocol of the PR 8 tree computed (:data:`PER_LINE_PR8`); with the
adjacent-line prefetch off it installs no rider.
"""

import ast
import dataclasses
import hashlib
import inspect
import pathlib

import pytest

import repro
from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.experiments.harness import run_workload_direct
from repro.hardware.topology import cluster_topology, smp_topology
from repro.interconnect.routing import Fabric
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.runtime.pthreads import PthreadsBackend
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
}


@pytest.fixture(scope="module")
def default():
    return _run(SamhitaConfig(functional=True))


class TestFunctionalIdentity:
    def test_default_config_matches_compat_data(self, default):
        assert _grid_digest(default) == PER_LINE_PR8["grid"]


class TestPrefetchReporting:
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
    def test_victim_selection_is_not_configurable(self):
        # One implementation of each mechanism, no switch to a predecessor:
        # victim selection (column selection in SoftwareCache, pinned to
        # the reference model by tests/property/test_cache_equivalence.py),
        # the fault / prefetch / evict protocol (rtbatch) with the paper's
        # adjacent-line prefetch as its one predictor, the engine, the
        # combining barrier arrival (``tree_barriers``) -- and no
        # tail-tolerance knob on top of the plain retry loop. The failure
        # detector's cadence is a pair of constants, not configuration. A
        # wedged run is a DeadlockError: no lock lease, no thread death and
        # no engine hook that could re-arm a drained queue. Fencing epochs
        # are armed by any fault plan, not by a flag of their own. The
        # fixed software costs and the allocator thresholds nobody set are
        # constants of params.py and allocator.py. Checkpoint/restart went
        # too: losing a ring's last replica stops the run.
        fields = {f.name for f in dataclasses.fields(SamhitaConfig)}
        assert len(fields) == 15
        for gone in ("eviction_impl", "batched_round_trips",
                     "batch_line_fetches", "prefetch_adjacent",
                     "adaptive_timeouts", "hedged_fetches", "hedge_quantile",
                     "retry_budget", "retry_budget_refill",
                     "breaker_cooldown", "admission_queue_limit",
                     "hierarchical_sync", "heartbeat_interval",
                     "heartbeat_misses", "fencing",
                     "memserver_service_time", "twin_create_time",
                     "diff_scan_time", "apply_time_per_byte",
                     "invalidate_page_time", "install_page_time",
                     "arena_max_alloc", "arena_chunk_bytes",
                     "stripe_threshold", "manager_service_time",
                     "fault_handler_time", "barrier_eager_refresh",
                     "checkpoint_interval"):
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
        assert not [f for f in fields if "lease" in f]
        assert not [a for a in vars(Engine()) if "hook" in a]
        assert not [a for a in dir(SamhitaSystem) if "thread_dead" in a]
        src = pathlib.Path(repro.__file__).parent
        texts = {str(p): p.read_text() for p in src.rglob("*.py")}
        assert not [p for p, text in texts.items() if "os.environ" in text]
        # The stride predictor and the plan-informed look-ahead went with
        # their mode: the paper's adjacent-line prefetch, on or off.
        assert SamhitaConfig().prefetch is True
        assert not (src / "core" / "prefetcher.py").exists()
        for gone in ("StridePrefetcher", "PrefetchPolicy", "adaptive_cache",
                     "prefetch_spans", "upcoming_spans", "prefetch_waits",
                     "plan_prefetches"):
            assert not [p for p, text in texts.items() if gone in text], gone

    def test_every_field_has_a_setter_outside_the_tests(self):
        # A field only a test sets is a constant in disguise: each one is
        # set by keyword (``name=``) or swept by name (a ``"name"`` call
        # argument or dict key) somewhere in the package, the benchmarks
        # or the examples -- or by a ``SamhitaConfig`` preset that one of
        # them calls (``SamhitaConfig.grayfail()``).
        root = pathlib.Path(repro.__file__).parents[2]

        def names_set(tree, named, called):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    named.update(k.arg for k in node.keywords)
                    if isinstance(node.func, ast.Attribute):
                        called.add(node.func.attr)
                    names = node.args
                elif isinstance(node, ast.Dict):
                    names = node.keys
                else:
                    continue
                named.update(n.value for n in names
                             if isinstance(n, ast.Constant))

        named, called = set(), set()
        params = None
        for d in ("src", "benchmarks", "examples"):
            for path in (root / d).rglob("*.py"):
                tree = ast.parse(path.read_text())
                if path.name == "params.py":
                    params = tree
                    continue
                names_set(tree, named, called)
        config_class = next(node for node in params.body
                            if isinstance(node, ast.ClassDef)
                            and node.name == "SamhitaConfig")
        for method in config_class.body:
            if (isinstance(method, ast.FunctionDef) and method.name in called
                    and "classmethod" in [getattr(d, "id", None)
                                          for d in method.decorator_list]):
                names_set(method, named, set())
        unset = {f.name for f in dataclasses.fields(SamhitaConfig)} - named
        assert unset == set()

    def test_removed_cost_knobs_are_rejected(self):
        with pytest.raises(TypeError):
            Fabric(Engine(), cluster_topology(2), model_contention=False)
        with pytest.raises(TypeError):
            SamhitaSystem.cluster(1, model_contention=False)
        with pytest.raises(TypeError):
            SamhitaSystem.hetero(model_contention=False)
        with pytest.raises(TypeError):
            SamhitaSystem(smp_topology(), model_contention=False)
        with pytest.raises(TypeError):
            SamhitaSystem(smp_topology(), manager_component="host")
        for knob in ("lock_overhead", "barrier_base_overhead",
                     "cond_overhead", "malloc_overhead"):
            with pytest.raises(TypeError):
                PthreadsBackend(1, **{knob: 0.0})

    def test_prefetch_none_disables_speculation(self):
        cfg = SamhitaConfig(functional=True, prefetch=False)
        result = run_workload_direct("samhita", N_THREADS, spawn_jacobi,
                                     PARAMS, functional=True, config=cfg)
        assert result.stats["caches"].get("prefetch_installs", 0) == 0
        assert _grid_digest(result)[0] == pytest.approx(7.8125)
