"""Crash-consistent checkpoint/restart: lose ALL replicas, restore, replay.

The replication layer (PR 5) turns "one memory server died" into a
failover; losing the *last* replica of a page's ring is fatal by
construction -- there is nothing left to promote. With
``checkpoint_interval`` set, every Nth barrier round snapshots a
consistent cut of the machine into the durable checkpoint store, so the
operator's answer to total data loss becomes: build a fresh machine,
``restore()`` the latest checkpoint, re-spawn the program from the
checkpointed round, and replay to the end. The final bytes must be
bit-identical to an uninterrupted run -- the cut is taken at the barrier
quiesce point, so no half-applied round can leak into the snapshot.
"""

import numpy as np
import pytest

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.errors import ReplicationError, SimulationError
from repro.faults import FaultPlan
from repro.resilience.checkpoint import restore_checkpoint
from repro.sim.engine import Timeout

pytestmark = pytest.mark.chaos

N_THREADS = 4
ELEMS_PER_THREAD = 1024           # 8192 B = 2 pages per thread slice
SLICE_BYTES = ELEMS_PER_THREAD * 8
NBYTES = N_THREADS * SLICE_BYTES  # 8 pages, striped across both servers
ROUNDS = 6
KILL_AFTER = 3                    # both replicas die after this round's barrier


def _config(checkpoint_interval=1) -> SamhitaConfig:
    # An all-zero fault plan arms fencing without injecting anything: the
    # kills below are direct failure declarations.
    return SamhitaConfig(n_memory_servers=2, replication_factor=2,
                         faults=FaultPlan(),
                         checkpoint_interval=checkpoint_interval)


def _build(config):
    system = SamhitaSystem.cluster(N_THREADS, config=config)
    tids = [system.add_thread() for _ in range(N_THREADS)]
    return system, tids


def _spawn_rounds(system, tids, state, start_round, end_round,
                  kill_after=None):
    """Register the campaign's threads: a barrier-synchronized slice update
    per round (``x = 1.25 x + (round+1)(thread+1)``), reading back the whole
    array at the end. ``kill_after`` kills BOTH memory servers right after
    that round's barrier -- the second declaration finds an empty ring."""
    bar = system.create_barrier(len(tids))

    def body(i, tid):
        if i == 0:
            state["addr"] = yield from system.malloc(tid, NBYTES, shared=True)
        yield from system.barrier_wait(tid, bar)
        addr = state["addr"] + i * SLICE_BYTES
        for r in range(start_round, end_round):
            data = yield from system.mem_read(tid, addr, SLICE_BYTES)
            arr = np.frombuffer(data, dtype=np.float64).copy()
            arr = arr * 1.25 + float((r + 1) * (i + 1))
            yield from system.mem_write(tid, addr, SLICE_BYTES,
                                        arr.view(np.uint8))
            yield from system.barrier_wait(tid, bar)
            if kill_after is not None and i == 0 and r == kill_after:
                yield Timeout(1e-6)
                system.resilience.handle_server_failure(0)
                system.resilience.handle_server_failure(1)
        if i == 0:
            state["final"] = bytes(
                (yield from system.mem_read(tid, state["addr"], NBYTES)))

    for i, tid in enumerate(tids):
        system.process(body(i, tid), name=f"t{i}")


def _reference_final() -> bytes:
    system, tids = _build(_config())
    state: dict = {}
    _spawn_rounds(system, tids, state, 0, ROUNDS)
    system.run()
    return state["final"]


@pytest.fixture(scope="module")
def reference_final():
    return _reference_final()


def test_last_replica_loss_recovers_via_checkpoint_restore(reference_final):
    # --- the doomed campaign: rounds 0..KILL_AFTER, then total data loss.
    system, tids = _build(_config())
    state: dict = {}
    _spawn_rounds(system, tids, state, 0, ROUNDS, kill_after=KILL_AFTER)
    with pytest.raises(SimulationError) as excinfo:
        system.run()
    # The engine surfaces the thread's death with the cause chained in.
    assert isinstance(excinfo.value.__cause__, ReplicationError)
    # The first declaration was an ordinary (fenced) failover; the second
    # found no live replica and took the machine down.
    report = system.stats_report()
    assert report["membership"]["promotions"] == 1
    assert report["membership"]["epoch"] == 1
    # One checkpoint per barrier generation: the publish barrier plus one
    # per completed round.
    assert report["membership"]["checkpoints_taken"] == KILL_AFTER + 2
    store = system.resilience.checkpoints
    ckpt = store.latest()
    assert ckpt is not None
    assert ckpt.page_count > 0
    assert ckpt.round == KILL_AFTER + 2
    # The cut predates the failover: its epoch is the pre-kill view.
    assert ckpt.epoch == 0

    # --- fresh machine, restore, replay the remaining rounds.
    system2, tids2 = _build(_config())
    restore_checkpoint(system2, ckpt)
    state2: dict = {}
    _spawn_rounds(system2, tids2, state2, KILL_AFTER + 1, ROUNDS)
    system2.run()
    # The deterministic bump allocator reproduced the original placement.
    assert state2["addr"] == state["addr"]
    assert state2["final"] == reference_final
    report2 = system2.stats_report()
    assert report2["membership"]["checkpoints_restored"] == 1


def test_checkpoint_interval_thins_the_snapshots(reference_final):
    """interval=2: half the barrier generations snapshot, and the final
    data is untouched by the checkpointing itself."""
    system, tids = _build(_config(checkpoint_interval=2))
    state: dict = {}
    _spawn_rounds(system, tids, state, 0, ROUNDS)
    system.run()
    assert state["final"] == reference_final
    taken = system.stats_report()["membership"]["checkpoints_taken"]
    assert taken == (ROUNDS + 1) // 2
    assert len(system.resilience.checkpoints) == taken


def test_restore_replay_is_deterministic(reference_final):
    """Two restores from the same checkpoint replay to the same bytes."""
    system, tids = _build(_config())
    state: dict = {}
    _spawn_rounds(system, tids, state, 0, KILL_AFTER + 1)
    system.run()
    ckpt = system.resilience.checkpoints.latest()

    def replay():
        sys2, tids2 = _build(_config(checkpoint_interval=0))
        restore_checkpoint(sys2, ckpt)
        st: dict = {}
        _spawn_rounds(sys2, tids2, st, KILL_AFTER + 1, ROUNDS)
        sys2.run()
        return st["final"]

    first = replay()
    assert first == replay()
    assert first == reference_final


def test_checkpointing_is_off_by_default():
    system, _tids = _build(SamhitaConfig(n_memory_servers=2,
                                         replication_factor=2))
    assert system.resilience.checkpoints is None
    assert system.resilience.membership is None
    assert "membership" not in system.stats_report()
