"""Chaos kill tests: lose a memory server permanently, finish anyway.

With ``replication_factor=2`` every page home has a backup holding the
acked prefix of its apply stream plus a durable WAL covering the rest, so
a permanent mid-campaign crash of one memory server must be survivable:
the heartbeat detector declares it dead, its backup is promoted, the WAL
tail replays, and every kernel's final data comes out bit-identical to a
fault-free run -- while the failover and WAL-replay counters prove the
machinery actually ran rather than the schedule missing.
"""

import collections
import hashlib

import numpy as np
import pytest

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.errors import ReplicationError, SimulationError
from repro.experiments.harness import run_workload_direct
from repro.faults import FaultPlan, permanent_crash
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.kernels.md import MDParams, spawn_md
from repro.sim.engine import Timeout

from tests.chaos.conftest import chaos_seeds, kill_plan

pytestmark = pytest.mark.chaos

N_THREADS = 4
JACOBI_PARAMS = JacobiParams(rows=64, cols=256, iterations=3,
                             collect_result=True)
MD_PARAMS = MDParams(n_particles=48, steps=3, collect_energy=False,
                     collect_state=True)
#: Crash instants chosen inside each kernel's run so the dead server still
#: holds unshipped (lazily recalled) WAL entries -- forcing a real replay,
#: not just a remap of an already-synchronized backup.
JACOBI_CRASH_AT = 4e-4
MD_CRASH_AT = 8.5e-5


def _replicated(faults=None) -> SamhitaConfig:
    return SamhitaConfig(n_memory_servers=2, replication_factor=2,
                         faults=faults)


def _run_jacobi(config):
    result = run_workload_direct("samhita", N_THREADS, spawn_jacobi,
                                 JACOBI_PARAMS, functional=True,
                                 config=config)
    gdiff, grid = result.threads[0].value
    return (gdiff, hashlib.sha256(grid.tobytes()).hexdigest()), result


def _run_md(config, params=MD_PARAMS):
    result = run_workload_direct("samhita", N_THREADS, spawn_md, params,
                                 functional=True, config=config)
    _energies, pos, vel = result.threads[0].value
    return hashlib.sha256(pos.tobytes() + vel.tobytes()).hexdigest(), result


@pytest.fixture(scope="module")
def jacobi_baseline():
    digest, result = _run_jacobi(_replicated())
    return digest, result.stats


@pytest.fixture(scope="module")
def md_baseline():
    digest, _result = _run_md(_replicated())
    return digest


def _assert_failover_ran(stats: dict) -> None:
    repl = stats["replication"]
    assert repl.get("failovers", 0) >= 1
    assert repl.get("servers_declared_dead", 0) >= 1
    assert repl.get("home_remaps", 0) >= 1
    assert repl.get("wal_replayed", 0) > 0
    assert stats["faults"].get("crash_drops", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
def test_jacobi_survives_permanent_server_loss(jacobi_baseline, seed):
    digest, result = _run_jacobi(
        _replicated(kill_plan(seed, at=JACOBI_CRASH_AT)))
    assert digest == jacobi_baseline[0]
    _assert_failover_ran(result.stats)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_md_survives_permanent_server_loss(md_baseline, seed):
    digest, result = _run_md(_replicated(kill_plan(seed, at=MD_CRASH_AT)))
    assert digest == md_baseline
    _assert_failover_ran(result.stats)


# -- a second crash on a three-copy ring --------------------------------------

RF3_MD_PARAMS = MDParams(n_particles=48, steps=6, collect_energy=False,
                         collect_state=True)


def _rf3(faults=None) -> SamhitaConfig:
    return SamhitaConfig(n_memory_servers=3, replication_factor=3,
                         faults=faults)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_rf3_second_crash_keeps_md_exact(seed):
    """node2 dies, node1 is promoted for its pages and keeps shipping to
    node3, then node1 dies too. Every batch node1 shipped after the first
    promotion must land on node3: a backup that acks a batch without
    applying it ends MD on wrong positions after the second failover."""
    baseline = _run_md(_rf3(), RF3_MD_PARAMS)[0]
    retry = permanent_crash(seed, "node2", at=0.0).retry
    for second_at in (1.5e-4, 3e-4, 6e-4, 9e-4):
        plan = FaultPlan(seed=seed, retry=retry, permanent_crashes=(
            ("node2", MD_CRASH_AT), ("node1", second_at)))
        digest, result = _run_md(_rf3(plan), RF3_MD_PARAMS)
        assert digest == baseline, f"second crash at {second_at * 1e6:g} us"
        assert result.stats["replication"]["failovers"] == 2


def test_replication_itself_does_not_change_data(jacobi_baseline):
    """rf=2 with two homes produces the same answer as the plain rf=1
    single-home machine -- replication is pure redundancy."""
    digest, _result = _run_jacobi(SamhitaConfig())
    assert digest == jacobi_baseline[0]


def test_healthy_replicated_run_ships_and_acks(jacobi_baseline):
    """No faults: diffs still flow to backups through the WAL (shipped and
    acknowledged inline with the flush), and nothing fails over."""
    repl = jacobi_baseline[1]["replication"]
    assert repl.get("repl_ships", 0) > 0
    assert repl.get("replica_applies", 0) > 0
    assert repl.get("wal_appends", 0) > 0
    assert repl.get("repl_diffs", 0) == repl.get("wal_pruned", 0)
    assert repl.get("failovers", 0) == 0


@pytest.mark.parametrize("seed", [chaos_seeds()[0]])
def test_kill_schedule_replays_bit_identically(seed):
    """Same kill plan, same seed: crash, failover and replay, the
    trajectory replays exactly (the fault plan draws from deterministic
    streams)."""
    first = _run_jacobi(_replicated(kill_plan(seed, at=JACOBI_CRASH_AT)))
    second = _run_jacobi(_replicated(kill_plan(seed, at=JACOBI_CRASH_AT)))
    assert first[0] == second[0]
    assert first[1].elapsed == second[1].elapsed
    assert first[1].stats["replication"] == second[1].stats["replication"]
    assert first[1].stats["faults"] == second[1].stats["faults"]


# -- one fault, two homes ---------------------------------------------------

def _two_home_fault(faults=None, at_fault=None):
    """A writer stores 100 and 101 at the heads of the first two lines of
    a striped allocation (homed on servers 0 and 1) and meets a reader at
    a barrier. The reader then reads the first line: one fault whose
    demand trip goes to home 0 while the adjacent line rides a trip to
    home 1. ``at_fault(system)`` runs just before that read. Returns the
    system and the reader's view: the instants its fault began and ended
    and the values it read from both lines."""
    system = SamhitaSystem.cluster(2, config=_replicated(faults))
    writer, reader = system.add_thread(), system.add_thread()
    barrier = system.create_barrier(2)
    line = system.config.layout.pages_per_line * 4096
    where, seen = {}, {}

    def write():
        where["base"] = base = yield from system.malloc(writer, 2 << 20)
        for i in (0, 1):
            yield from system.mem_write(
                writer, base + i * line, 8,
                np.frombuffer(np.int64(100 + i).tobytes(), np.uint8))
        yield from system.barrier_wait(writer, barrier)

    def read():
        yield from system.barrier_wait(reader, barrier)
        base = where["base"]
        assert [system.allocator.home_of_page((base + i * line) // 4096)
                for i in (0, 1)] == [0, 1]
        if at_fault is not None:
            at_fault(system)
        seen["began"] = system.engine.now
        first = yield from system.mem_read(reader, base, 8)
        seen["ended"] = system.engine.now
        second = yield from system.mem_read(reader, base + line, 8)
        seen["values"] = [int(np.asarray(v, dtype=np.uint8).view(np.int64)[0])
                          for v in (first, second)]

    system.process(write(), name="writer")
    system.process(read(), name="reader")
    system.run()
    return system, seen


def _log_trips(log):
    """``at_fault`` hook: log ``(instant, logical home)`` of every home
    resolution from the fault on -- each trip attempt resolves its home
    once."""
    def install(system):
        resolve = system.directory.resolve_home

        def logging(home):
            log.append((system.engine.now, home))
            return resolve(home)

        system.directory.resolve_home = logging
    return install


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("killed", [0, 1])
def test_two_home_fault_survives_losing_one_home(seed, killed):
    """Kill one of the two homes while both trips of one fault are in
    flight: the fault ends on fault-free data, only the dead home's trip
    is re-issued (after the failover), and the surviving home's trip --
    finished while its sibling waits out the failover -- is not."""
    _, clean = _two_home_fault()
    assert clean["values"] == [100, 101]
    at = clean["began"] + 2e-6  # both requests are on the wire
    assert at < clean["ended"]
    log = []
    system, seen = _two_home_fault(
        permanent_crash(seed, f"node{1 + killed}", at=at),
        at_fault=_log_trips(log))
    counts = collections.Counter(home for t, home in log
                                 if t <= seen["ended"])
    assert system.memory_servers[killed].component == f"node{1 + killed}"
    assert seen["values"] == clean["values"]
    assert system.stats_report()["replication"]["failovers"] == 1
    assert counts[1 - killed] == 1
    assert counts[killed] >= 2


def test_a_sibling_share_failure_surfaces_in_the_faulting_thread():
    """A fatal error in the share the faulting thread did not run itself
    (home 0's) fails the reader through the join, although that share
    fails before the reader's own trip returns to join it -- not as an
    orphaned process failure."""
    planted = ReplicationError("planted: home 0 cannot serve")

    def fail_home_0(system):
        def serve(*args, **kwargs):
            raise planted
            yield  # a generator, like the serve it stands in for

        system.memory_servers[0].serve_fetch_bulk = serve

    with pytest.raises(SimulationError, match="process reader failed") as info:
        _two_home_fault(at_fault=fail_home_0)
    assert info.value.__cause__ is planted


# -- losing the last replica ------------------------------------------------

def test_last_replica_loss_stops_the_run():
    """Both servers of a two-server rf=2 ring die after a round's barrier.
    The first declaration is an ordinary failover; the second finds no
    live replica and stops the run with a ReplicationError."""
    # An all-zero fault plan arms the detector without injecting anything:
    # the kills below are direct failure declarations.
    system = SamhitaSystem.cluster(N_THREADS,
                                   config=_replicated(FaultPlan()))
    tids = [system.add_thread() for _ in range(N_THREADS)]
    bar = system.create_barrier(N_THREADS)
    slice_bytes = 2 * 4096  # 8 pages in all, striped across both servers
    rounds, kill_after = 6, 3
    where = {}

    def body(i, tid):
        if i == 0:
            where["addr"] = yield from system.malloc(
                tid, N_THREADS * slice_bytes, shared=True)
        yield from system.barrier_wait(tid, bar)
        addr = where["addr"] + i * slice_bytes
        for r in range(rounds):
            data = yield from system.mem_read(tid, addr, slice_bytes)
            arr = (np.frombuffer(data, dtype=np.float64) * 1.25
                   + (r + 1) * (i + 1))
            yield from system.mem_write(tid, addr, slice_bytes,
                                        arr.view(np.uint8))
            yield from system.barrier_wait(tid, bar)
            if i == 0 and r == kill_after:
                yield Timeout(1e-6)
                system.resilience.handle_server_failure(0)
                system.resilience.handle_server_failure(1)

    for i, tid in enumerate(tids):
        system.process(body(i, tid), name=f"t{i}")
    with pytest.raises(SimulationError) as excinfo:
        system.run()
    # The engine surfaces the thread's death with the cause chained in.
    assert isinstance(excinfo.value.__cause__, ReplicationError)
    assert system.stats_report()["replication"]["failovers"] == 1
