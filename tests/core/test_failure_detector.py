"""FailureDetector unit tests: the mid-probe heal reset.

``HEARTBEAT_MISSES`` consecutive missed beats declare a server dead -- but
"consecutive" must mean *one continuous outage*. Two distinct short crash
windows straddling the probe cadence look identical to a naive miss counter
(every probe lands inside SOME down-window), and before the
``came_up_between`` check the detector accumulated them into a false
declaration. These tests pin the fix: a heal between two beats resets the
count (and bumps ``suspicions_cleared``); one unbroken outage still
declares on schedule.
"""

from repro.resilience.detector import HEARTBEAT_INTERVAL as BEAT
from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.faults.plan import FaultPlan


def _system(windows):
    config = SamhitaConfig(n_memory_servers=2, replication_factor=2,
                           faults=FaultPlan(seed=7,
                                            server_crash_windows=windows))
    # Defaults: node0 manager, node1/node2 memory servers.
    return SamhitaSystem.cluster(n_threads=1, config=config)


def test_two_short_cuts_straddling_probes_do_not_declare():
    # Suspicion at t=0; probes at 10/20/30/40/50 us. Every probe until
    # 40 us lands inside a down-window, but the gap (25, 26) us means
    # node1 WAS reachable between the 20 us and 30 us beats: the second
    # window is a fresh outage and must restart the count.
    windows = (("node1", 0.0, 25e-6), ("node1", 26e-6, 45e-6))
    system = _system(windows)
    system.resilience.detector.suspect("node1")
    system.run()
    det = system.resilience.detector.stats.snapshot()
    # Reset once mid-suspicion (the heal), cleared once at stand-down.
    assert det["suspicions_cleared"] == 2
    assert det.get("servers_declared_dead", 0) == 0
    assert not system.resilience.dead_servers
    assert system.stats.snapshot().get("failovers", 0) == 0


def test_one_unbroken_cut_still_declares():
    # Same total down-time, no gap: three consecutive misses of a single
    # outage declare node1 dead at the 30 us beat.
    system = _system((("node1", 0.0, 45e-6),))
    system.resilience.detector.suspect("node1")
    system.run()
    det = system.resilience.detector.stats.snapshot()
    assert det.get("suspicions_cleared", 0) == 0
    assert det["servers_declared_dead"] == 1
    assert system.resilience.dead_servers == {0}
    assert system.stats.snapshot()["failovers"] == 1


def test_heal_during_probe_clears_suspicion():
    # The window ends before the second beat: the probe answers, the
    # suspicion stands down without ever approaching the threshold.
    system = _system((("node1", 0.0, 15e-6),))
    system.resilience.detector.suspect("node1")
    system.run()
    det = system.resilience.detector.stats.snapshot()
    assert det["suspicions_cleared"] == 1
    assert det.get("servers_declared_dead", 0) == 0
    assert not system.resilience.dead_servers
