"""Duplicate storms end to end, and the recovery counters that must
surface in ``stats_report``.

A duplicate delivery models a lost ACK: the message lands once, the sender
retransmits anyway, and the receiver discards the copy. The duplicate costs
wire time and a retransmit; the handler runs once because one copy is
delivered, so the manager counts exactly the requests the program made.
The report tests pin the operator-facing side -- duplicates and lock-lease
re-grants must be visible in the run's stats, not just in private state.
"""

from repro.core import SamhitaConfig, SamhitaSystem
from repro.faults import FaultPlan
from repro.sim.engine import Timeout


def run_threads(system, bodies, names=None):
    for i, body in enumerate(bodies):
        system.process(body, name=(names[i] if names else f"t{i}"))
    return system.run()


class TestDuplicateStormEndToEnd:
    THREADS, ROUNDS, PASSAGES_PER_ROUND = 4, 3, 2
    PLAN = FaultPlan(seed=5, duplicate_rate=0.5)

    def _storm(self):
        """Every thread takes one shared lock ``PASSAGES_PER_ROUND`` times,
        then meets the others at a barrier, ``ROUNDS`` times."""
        system = SamhitaSystem.cluster(
            n_threads=self.THREADS, config=SamhitaConfig(faults=self.PLAN))
        tids = [system.add_thread() for _ in range(self.THREADS)]
        lock = system.create_lock()
        bar = system.create_barrier(self.THREADS)
        counts = {"acquired": 0}

        def body(tid):
            for _ in range(self.ROUNDS):
                for _ in range(self.PASSAGES_PER_ROUND):
                    yield from system.acquire_lock(tid, lock)
                    counts["acquired"] += 1
                    yield from system.release_lock(tid, lock)
                yield from system.barrier_wait(tid, bar)

        run_threads(system, [body(t) for t in tids])
        return counts["acquired"], system.stats_report()

    def test_storm_counters_surface_in_the_run_report(self):
        """Half of all messages are duplicated, yet every lock passage
        (acquire + release) and every barrier arrival reaches the manager
        exactly once: a duplicate never re-runs a handler."""
        acquired, report = self._storm()
        passages = self.ROUNDS * self.PASSAGES_PER_ROUND
        assert acquired == self.THREADS * passages
        manager = report["manager"]
        assert manager["requests.lock"] == 2 * self.THREADS * passages
        assert manager["requests.barrier"] == self.THREADS * self.ROUNDS
        assert report["faults"]["retransmits"] > 0

    def test_each_duplicate_is_counted_once(self):
        """With duplication the only fault process, every retransmit is one
        duplicate and the report counts each exactly once."""
        _, report = self._storm()
        faults = report["faults"]
        assert faults["dup_msgs_discarded"] == faults["retransmits"]


class TestLeaseCountersInReport:
    def test_regrant_counters_surface_in_the_run_report(self):
        """A dead holder's lease expiry must leave an audit trail in
        ``stats_report()["manager"]``: the death mark and the expiry."""
        config = SamhitaConfig(lock_lease_time=50e-6)
        system = SamhitaSystem.cluster(n_threads=2, config=config)
        t0, t1 = system.add_thread(), system.add_thread()
        lock = system.create_lock()

        def crasher():
            yield from system.acquire_lock(t0, lock)
            system.mark_thread_dead(t0)

        def waiter():
            yield Timeout(10e-6)
            yield from system.acquire_lock(t1, lock)
            yield from system.release_lock(t1, lock)

        run_threads(system, [crasher(), waiter()])
        manager = system.stats_report()["manager"]
        assert manager["threads_marked_dead"] == 1
        assert manager["lease_expiries"] == 1

    def test_clean_run_reports_zero_regrants(self):
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(lock_lease_time=50e-6))
        t0 = system.add_thread()
        lock = system.create_lock()

        def body():
            yield from system.acquire_lock(t0, lock)
            yield from system.release_lock(t0, lock)

        run_threads(system, [body()])
        manager = system.stats_report()["manager"]
        assert manager.get("lease_expiries", 0) == 0
        assert manager.get("threads_marked_dead", 0) == 0
