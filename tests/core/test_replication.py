"""Replication-layer units: WAL, home remap, page integrity, config.

The end-to-end kill tests live in ``tests/chaos/test_failover.py``; this
file pins the pieces down in isolation -- write-ahead log bookkeeping
(pending sets, acks, pruning, dead-target drops), the directory's failover
indirection, CRC integrity semantics on the backing store, and the config
validation / default-off gating of the whole subsystem.
"""

import numpy as np
import pytest

from repro.core import SamhitaConfig, SamhitaSystem
from repro.errors import ReproError
from repro.faults import FaultPlan, permanent_crash
from repro.memory.backing import (CRC, CRC_CORRUPT, NO_CRC, BackingStore,
                                  payload_crc_ok)
from repro.memory.diff import PageDiff
from repro.memory.directory import PageDirectory
from repro.memory.layout import MemoryLayout
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

    def test_unshipped_for_page_filters_the_repair_merge_set(self):
        wal = ReplicationLog(0)
        wal.append(7, make_diff(7, 0), targets=(1,))
        wal.append(8, make_diff(8, 0), targets=(1,))
        wal.append(7, make_diff(7, 4), targets=(1,))
        entries = wal.unshipped_for_page(7, 1)
        assert [e.lsn for e in entries] == [0, 2]


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


class TestPageIntegrity:
    def _store(self, functional=True):
        store = BackingStore(MemoryLayout(page_bytes=64),
                             functional=functional)
        store.integrity = True
        return store

    def test_crc_round_trips_a_clean_page(self):
        store = self._store()
        store.apply_diff(make_diff(3, 0, b"\x11\x22"))
        crc = store.page_crc(3)
        assert payload_crc_ok(store.read_page(3), crc)

    def test_corrupt_page_keeps_the_stale_crc(self):
        store = self._store()
        store.apply_diff(make_diff(3, 0, b"\x11\x22"))
        store.page_crc(3)
        store.corrupt_page(3)
        assert not payload_crc_ok(store.read_page(3), store.page_crc(3))
        assert store.stats.counters["pages_rotted"] == 1

    def test_apply_diff_never_launders_corruption(self):
        """Merging new diffs into a rotted frame must not refresh the CRC:
        the rot stays detectable until a replica repair."""
        store = self._store()
        store.apply_diff(make_diff(3, 0, b"\x11"))
        store.corrupt_page(3)
        store.apply_diff(make_diff(3, 8, b"\x77"))
        assert not payload_crc_ok(store.read_page(3), store.page_crc(3))

    def test_restore_page_clears_the_rot(self):
        store = self._store()
        store.apply_diff(make_diff(3, 0, b"\x11"))
        store.corrupt_page(3)
        clean = np.zeros(64, dtype=np.uint8)
        clean[0] = 0x11
        store.restore_page(3, clean)
        assert payload_crc_ok(store.read_page(3), store.page_crc(3))
        assert store.stats.counters["pages_restored"] == 1

    def test_timing_mode_uses_the_corruption_sentinel(self):
        store = self._store(functional=False)
        store.apply_diff(PageDiff(3, spans=[(0, None)], sizes=[4]))
        assert payload_crc_ok(None, store.page_crc(3))
        store.corrupt_page(3)
        assert store.page_crc(3) == CRC_CORRUPT
        assert not payload_crc_ok(None, store.page_crc(3))

    def test_integrity_off_means_no_crc_bookkeeping(self):
        store = BackingStore(MemoryLayout(page_bytes=64), functional=True)
        store.apply_diff(make_diff(3, 0, b"\x11"))
        cols, row = store.ensure(3)
        assert cols[CRC][row] == NO_CRC
        assert payload_crc_ok(store.read_page(3), None)


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
        with pytest.raises(ReproError):
            FaultPlan(seed=1, bitrot_rate=1.5)
        plan = permanent_crash(3, "node1", at=1e-4, bitrot_rate=0.01)
        assert plan.permanent_crashes == (("node1", 1e-4),)
        assert not plan.silent


class TestDefaultOff:
    def test_rf1_system_has_no_replication_machinery(self):
        system = SamhitaSystem.cluster(n_threads=1)
        assert system.resilience is None
        assert system.on_quiesce is None
        for server in system.memory_servers:
            assert not server.backing.integrity
        assert "replication" not in system.stats_report()

    def test_rf2_system_arms_wal_and_integrity(self):
        config = SamhitaConfig(n_memory_servers=2, replication_factor=2)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        res = system.resilience
        assert [wal.index for wal in res.wals] == [0, 1]
        for server in system.memory_servers:
            assert server.backing.integrity
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
        (SamhitaConfig(faults=FaultPlan()), "membership"),
        (SamhitaConfig(n_memory_servers=2, replication_factor=2), "wals"),
        (SamhitaConfig(checkpoint_interval=1), "checkpoints"),
    ], ids=["faults", "replication_factor", "checkpoint_interval"])
    def test_each_trigger_attaches_the_package(self, config, armed):
        """The package composes in for each of its three triggers alone,
        arming only what that trigger needs."""
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        res = system.resilience
        assert res is not None and res.system is system
        facets = {"membership": res.membership, "wals": res.wals,
                  "checkpoints": res.checkpoints}
        assert [k for k, v in facets.items() if v is not None] == [armed]
        assert (system.on_quiesce is not None) == (armed == "checkpoints")


class TestBitrotGate:
    """Bitrot only lands where the repair path can still fix it: a page
    whose backup the plan has taken down is left alone (and draws nothing
    from the bitrot stream) even before the detector declares the backup
    dead."""

    @staticmethod
    def _primary_page(backup_dies_at):
        # node1 and node2 are memory servers 0 and 1; every draw rots.
        plan = permanent_crash(5, "node2", at=backup_dies_at, bitrot_rate=1.0)
        config = SamhitaConfig(n_memory_servers=2, replication_factor=2,
                               faults=plan)
        system = SamhitaSystem.cluster(n_threads=1, config=config)
        addr = system.allocator.shared_alloc(128 << 10, 0)
        page = addr // system.config.layout.page_bytes
        assert system.allocator.home_of_page(page) == 0
        return system, system.memory_servers[0], page

    def test_a_crashed_but_undeclared_backup_gets_no_rot_and_no_draw(self):
        system, primary, page = self._primary_page(backup_dies_at=0.0)
        assert system.injector.server_down("node2", system.engine.now)
        res = system.resilience
        assert 1 not in res.dead_servers  # not declared yet
        assert res.live_backup_of(page, 0) == 1
        rng = system.injector._bitrot_rng.getstate()
        res._maybe_bitrot(primary, page)
        assert primary.backing.stats.counters["pages_rotted"] == 0
        assert system.injector.stats.counters["bitrot_injected"] == 0
        assert system.injector._bitrot_rng.getstate() == rng

    def test_a_live_backup_lets_the_draw_rot(self):
        system, primary, page = self._primary_page(backup_dies_at=1.0)
        system.resilience._maybe_bitrot(primary, page)
        assert primary.backing.stats.counters["pages_rotted"] == 1
        assert system.injector.stats.counters["bitrot_injected"] == 1


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
