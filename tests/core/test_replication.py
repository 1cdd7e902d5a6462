"""Replication-layer units: WAL, home remap, config.

The end-to-end kill tests live in ``tests/chaos/test_failover.py``; this
file pins the pieces down in isolation -- write-ahead log bookkeeping
(pending sets, acks, pruning, dead-target drops), the directory's failover
indirection, and the config validation / default-off gating of the whole
subsystem.
"""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.errors import ReproError
from repro.experiments.harness import run_workload_direct
from repro.faults import FaultPlan, permanent_crash
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.kernels.md import MDParams, spawn_md
from repro.memory.diff import PageDiff
from repro.memory.directory import PageDirectory
from repro.resilience.wal import ReplicationLog


def make_diff(page: int, offset: int = 0, data: bytes = b"\x2a") -> PageDiff:
    arr = np.frombuffer(data, dtype=np.uint8).copy()
    return PageDiff(page, spans=[(offset, arr)])


class TestReplicationLog:
    def test_append_assigns_lsns_and_pending_targets(self):
        wal = ReplicationLog(0)
        e0 = wal.append(7, make_diff(7), targets=(1, 2))
        e1 = wal.append(9, make_diff(9), targets=(1,))
        assert (e0.lsn, e1.lsn) == (0, 1)
        assert e0.pending == {1, 2}
        assert [e.lsn for e in wal.unshipped(1)] == [0, 1]
        assert [e.lsn for e in wal.unshipped(2)] == [0]

    def test_append_without_live_targets_logs_nothing(self):
        wal = ReplicationLog(0)
        assert wal.append(7, make_diff(7), targets=()) is None
        assert len(wal) == 0
        assert wal.stats.counters["wal_appends"] == 0

    def test_ack_prunes_fully_acknowledged_entries(self):
        wal = ReplicationLog(0)
        wal.append(7, make_diff(7), targets=(1, 2))
        wal.append(9, make_diff(9), targets=(1,))
        wal.ack(1, wal.unshipped(1))
        # Entry 0 still owes target 2; entry 1 is gone.
        assert [e.page for e in wal.entries] == [7]
        assert wal.stats.counters["wal_pruned"] == 1
        wal.ack(2, wal.unshipped(2))
        assert len(wal) == 0
        assert wal.stats.counters["wal_pruned"] == 2

    def test_drop_target_releases_a_dead_backup(self):
        wal = ReplicationLog(0)
        wal.append(7, make_diff(7), targets=(1,))
        wal.append(8, make_diff(8), targets=(1, 2))
        wal.drop_target(1)
        assert [e.page for e in wal.entries] == [8]
        assert wal.unshipped(1) == []


class TestHomeRemap:
    def test_resolve_is_identity_until_a_failover(self):
        d = PageDirectory()
        assert d.resolve_home(0) == 0
        assert d.resolve_home(3) == 3

    def test_remap_points_dead_home_at_promoted(self):
        d = PageDirectory()
        d.remap_home(dead=1, promoted=2)
        assert d.resolve_home(1) == 2
        assert d.resolve_home(2) == 2
        assert d.stats.counters["home_remaps"] == 1

    def test_chained_failures_stay_single_hop(self):
        d = PageDirectory()
        d.remap_home(dead=1, promoted=2)
        d.remap_home(dead=2, promoted=3)
        # Pages logically homed on 1 resolve straight to 3, not via 2.
        assert d.resolve_home(1) == 3
        assert d.resolve_home(2) == 3


class TestConfigValidation:
    def test_replication_factor_must_fit_the_server_count(self):
        with pytest.raises(ReproError):
            SamhitaConfig(replication_factor=2)  # n_memory_servers=1
        with pytest.raises(ReproError):
            SamhitaConfig(replication_factor=0)
        cfg = SamhitaConfig(n_memory_servers=2, replication_factor=2)
        assert cfg.replication_factor == 2

    def test_permanent_crash_plan_is_validated(self):
        with pytest.raises(ReproError):
            FaultPlan(seed=1, permanent_crashes=(("node1", -1.0),))
        # Memory corruption is not in the fault model (DESIGN.md S13).
        with pytest.raises(TypeError):
            FaultPlan(seed=1, bitrot_rate=0.01)
        with pytest.raises(TypeError):
            permanent_crash(1, "node1", at=1e-4, bitrot_rate=0.01)
        plan = permanent_crash(3, "node1", at=1e-4)
        assert plan.permanent_crashes == (("node1", 1e-4),)
        assert not plan.silent


class TestDefaultOff:
    def test_rf1_system_has_no_replication_machinery(self):
        system = SamhitaSystem.cluster(n_threads=1)
        assert system.resilience is None
        assert "replication" not in system.stats_report()

    def test_rf2_system_arms_the_wal(self):
        config = SamhitaConfig(n_memory_servers=2, replication_factor=2)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        res = system.resilience
        assert [wal.index for wal in res.wals] == [0, 1]
        # No fault plan -> nothing to detect failures with.
        assert res.detector is None
        assert res.replica_ring(0) == [0, 1]
        assert res.replica_ring(1) == [1, 0]
        assert "replication" in system.stats_report()

    def test_detector_armed_with_faults_and_replication(self):
        plan = permanent_crash(3, "node1", at=1e-3)
        config = SamhitaConfig(n_memory_servers=2, replication_factor=2,
                               faults=plan)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        assert system.resilience.detector is not None
        assert system.injector.detector is system.resilience.detector

    @pytest.mark.parametrize("config, armed", [
        (SamhitaConfig(manager_shards=2, faults=FaultPlan()), "detector"),
        (SamhitaConfig(n_memory_servers=2, replication_factor=2), "wals"),
    ], ids=["faults", "replication_factor"])
    def test_each_trigger_attaches_the_package(self, config, armed):
        """The package composes in for each of its two triggers alone (a
        fault plan on a machine whose shards can fail over, or a replica
        ring), arming only what that trigger needs."""
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        res = system.resilience
        assert res is not None and res.system is system
        facets = {"detector": res.detector, "wals": res.wals}
        assert [k for k, v in facets.items() if v is not None] == [armed]

    def test_a_plan_with_nothing_to_fail_over_attaches_nothing(self):
        """One manager, one copy: a fault plan gets the injector and its
        retries, and nothing can fail over."""
        config = SamhitaConfig(faults=FaultPlan())
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        assert system.injector is not None
        assert system.resilience is None


@pytest.mark.parametrize("spawn, params", [
    (spawn_jacobi, JacobiParams(rows=64, cols=256, iterations=3)),
    (spawn_md, MDParams(n_particles=48, steps=3, collect_energy=False)),
], ids=["jacobi", "md"])
def test_a_timing_mode_replicated_run_logs_every_merge(spawn, params):
    """Timing mode merges a recall's diffs as bare sizes unless a WAL must
    log them: with rf=2 every merge at a primary is logged, shipped and
    merged once more at its backup."""
    config = SamhitaConfig(n_memory_servers=2, replication_factor=2)
    stats = run_workload_direct("samhita", 4, spawn, params,
                                functional=False, config=config).stats
    repl = stats["replication"]
    assert repl["wal_appends"] > 0
    assert repl["wal_appends"] == repl["repl_diffs"]
    assert stats["memory_servers"]["diffs_applied"] == 2 * repl["wal_appends"]


class TestBatchTargets:
    """``replica_targets_each`` (what a merged batch is logged with) is
    ``replica_targets`` per diff: one ring for the batch while every server
    lives, each diff's own ring once one has been promoted."""

    def test_one_ring_until_a_server_dies_then_each_diffs_own(self):
        config = SamhitaConfig(n_memory_servers=3, replication_factor=2)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        tid = system.add_thread()
        pages = {}

        def allocate():
            for _ in range(6):  # the shared zone deals homes round-robin
                addr = yield from system.malloc(tid, 128 << 10, shared=True)
                page = addr // 4096
                pages.setdefault(system.allocator.home_of_page(page), page)

        system.process(allocate())
        system.run()
        assert sorted(pages) == [0, 1, 2]

        def each(home_pages, exclude):
            diffs = [make_diff(p) for p in home_pages]
            got = system.resilience.replica_targets_each(diffs, exclude)
            want = [system.resilience.replica_targets(d.page, exclude)
                    for d in diffs]
            assert [list(t) for _, t in zip(diffs, got)] == want
            return want

        assert each([pages[0], pages[0] + 1], 0) == [[1], [1]]
        system.resilience.handle_server_failure(0)
        # Server 1 now also holds server 0's pages: a batch of both resolves
        # two rings, and ring 0's only other member is dead.
        assert each([pages[0], pages[1], pages[0] + 1], 1) == [[], [2], []]
