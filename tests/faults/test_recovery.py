"""Recovery protocol tests: retry exhaustion, leases, deadlock hooks and
diagnostics, and route validation."""

import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.errors import (
    CommunicationError,
    DeadlockError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
    TopologyError,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.sim.engine import Engine, Timeout


def run_threads(system, bodies, names=None):
    for i, body in enumerate(bodies):
        system.process(body, name=(names[i] if names else f"t{i}"))
    return system.run()


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(CommunicationError, ReproError)
        assert issubclass(RetryExhaustedError, CommunicationError)

    def test_deadlock_error_carries_time_and_reasons(self):
        class FakeProc:
            def __init__(self, name):
                self.name = name

        procs = [FakeProc("worker0"), FakeProc("worker1")]
        err = DeadlockError(procs, now=2.5e-3,
                            reasons={"worker0": "lock3.wait",
                                     "worker1": "barrier.gen1.arrive"})
        msg = str(err)
        assert "t=" in msg
        assert "lock3.wait" in msg and "barrier.gen1.arrive" in msg
        assert err.now == 2.5e-3
        assert err.reasons["worker0"] == "lock3.wait"


class TestRetryExhaustion:
    def test_total_loss_exhausts_the_retry_budget(self):
        """With 100% loss the sender retries its full budget, then gives
        up; the engine surfaces the failure with the cause chained."""
        plan = FaultPlan(seed=3, drop_rate=1.0,
                         retry=RetryPolicy(timeout=1e-6, max_backoff=2e-6,
                                           max_retries=4))
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(faults=plan))
        tid = system.add_thread()

        def body():
            yield from system.malloc(tid, 1 << 21)  # striped: needs RPCs

        with pytest.raises(SimulationError) as excinfo:
            run_threads(system, [body()])
        cause = excinfo.value.__cause__
        assert isinstance(cause, RetryExhaustedError)
        assert cause.attempts == 4
        assert system.injector.stats.counters["retransmits"] == 4

    def test_exhaustion_error_carries_the_attempt_timeline(self):
        """Every attempt -- the original send plus each retry -- leaves an
        entry in the error's timeline: when it fired, which fault process
        ate it, and the timeout/backoff in force. That per-attempt record
        is what makes a retry-budget post-mortem possible."""
        plan = FaultPlan(seed=3, drop_rate=1.0,
                         retry=RetryPolicy(timeout=1e-6, max_backoff=2e-6,
                                           max_retries=4))
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(faults=plan))
        tid = system.add_thread()

        def body():
            yield from system.malloc(tid, 1 << 21)

        with pytest.raises(SimulationError) as excinfo:
            run_threads(system, [body()])
        cause = excinfo.value.__cause__
        timeline = cause.timeline
        assert len(timeline) == 5  # original attempt + 4 retries
        for i, entry in enumerate(timeline):
            assert entry["attempt"] == i + 1
            assert set(entry) == {"attempt", "t", "fault", "timeout",
                                  "backoff"}
            assert entry["fault"] == "drops_injected"
            assert entry["timeout"] == 1e-6
        # Simulated time advances monotonically across attempts, and only
        # the final (give-up) entry has no backoff scheduled after it.
        times = [entry["t"] for entry in timeline]
        assert times == sorted(times)
        assert all(e["backoff"] is not None for e in timeline[:-1])
        assert timeline[-1]["backoff"] is None
        # The message summarizes the timeline for humans.
        assert "5x drops_injected" in str(cause)

    def test_partial_loss_is_survivable(self):
        plan = FaultPlan(seed=3, drop_rate=0.3,
                         retry=RetryPolicy(timeout=1e-6, max_backoff=4e-6))
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(faults=plan))
        tid = system.add_thread()
        out = {}

        def body():
            out["addr"] = yield from system.malloc(tid, 1 << 21)

        run_threads(system, [body()])
        assert out["addr"] is not None
        assert system.injector.stats.counters["retransmits"] > 0


class TestLockLeases:
    def _system(self, **cfg):
        config = SamhitaConfig(lock_lease_time=50e-6, **cfg)
        system = SamhitaSystem.cluster(n_threads=2, config=config)
        return system, [system.add_thread(), system.add_thread()]

    def test_dead_holder_lease_expires_and_regrants(self):
        system, (t0, t1) = self._system()
        lock = system.create_lock()
        order = []

        def crasher():
            yield from system.acquire_lock(t0, lock)
            order.append("t0 acquired")
            system.mark_thread_dead(t0)
            # Crash: returns without ever releasing.

        def waiter():
            yield Timeout(10e-6)  # arrive second, while t0 holds the lock
            yield from system.acquire_lock(t1, lock)
            order.append("t1 acquired")
            yield from system.release_lock(t1, lock)

        elapsed = run_threads(system, [crasher(), waiter()])
        assert order == ["t0 acquired", "t1 acquired"]
        assert system.manager.stats.counters["lease_expiries"] == 1
        # The re-grant happens at the lease deadline, never earlier.
        assert elapsed >= 50e-6

    def test_live_holder_never_loses_its_lease(self):
        """A wedged-but-live holder is a true deadlock, not a lease case:
        the recoverer must decline and the enriched DeadlockError fire."""
        system, (t0, t1) = self._system()
        lock = system.create_lock()

        def holder():
            yield from system.acquire_lock(t0, lock)
            # Alive (not marked dead), just never releases.

        def waiter():
            yield Timeout(10e-6)
            yield from system.acquire_lock(t1, lock)

        with pytest.raises(DeadlockError) as excinfo:
            run_threads(system, [holder(), waiter()], names=["h", "w"])
        assert "w" in excinfo.value.reasons
        assert "lock" in excinfo.value.reasons["w"]

    def test_leases_disabled_means_deadlock(self):
        config = SamhitaConfig()  # lock_lease_time=0.0
        system = SamhitaSystem.cluster(n_threads=2, config=config)
        t0, t1 = system.add_thread(), system.add_thread()
        lock = system.create_lock()

        def crasher():
            yield from system.acquire_lock(t0, lock)
            system.mark_thread_dead(t0)

        def waiter():
            yield Timeout(10e-6)
            yield from system.acquire_lock(t1, lock)

        with pytest.raises(DeadlockError):
            run_threads(system, [crasher(), waiter()])


class TestEngineDeadlockHooks:
    def test_hook_can_recover_a_stall(self):
        engine = Engine()
        gate = engine.event("stalled.op")
        recovered = []

        def hook(blocked):
            recovered.append([p.name for p in blocked])
            engine.schedule(1e-6, gate.succeed)
            return True

        engine.deadlock_hooks.append(hook)

        def body():
            yield gate
            return "done"

        proc = engine.process(body(), name="stuck")
        engine.run()
        assert recovered == [["stuck"]]
        assert not proc.alive

    def test_all_hooks_declining_raises_enriched_deadlock(self):
        engine = Engine()
        engine.deadlock_hooks.append(lambda blocked: False)
        gate = engine.event("never.fires")

        def body():
            yield Timeout(5e-6)
            yield gate

        engine.process(body(), name="stuck")
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert excinfo.value.now == 5e-6
        assert excinfo.value.reasons == {"stuck": "never.fires"}


class TestRouteValidation:
    def test_route_names_the_offending_component(self):
        system = SamhitaSystem.cluster(n_threads=1)
        with pytest.raises(TopologyError, match="'nosuch'"):
            system.topology.route("nosuch", "node0")
        with pytest.raises(TopologyError, match="'ghost'"):
            system.topology.route("node0", "ghost")

    def test_fabric_transfer_surfaces_the_bad_endpoint(self):
        system = SamhitaSystem.cluster(n_threads=1)

        def body():
            yield from system.fabric.transfer("node0", "ghost", 64)

        with pytest.raises(SimulationError) as excinfo:
            run_threads(system, [body()])
        cause = excinfo.value.__cause__
        assert isinstance(cause, TopologyError)
        assert "'ghost'" in str(cause)
