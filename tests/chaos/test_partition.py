"""Chaos partition tests: sever node groups, finish with identical data.

Three canonical cuts over the fenced cluster (``manager_shards=3``,
``replication_factor=2``, ``fencing=True`` -- node0-2 are manager shards,
node3/node4 memory servers, node5 the compute node):

* **Minority memory server** (node4): the quorum of shards agrees it is
  gone, promotes its backup under a fresh fencing epoch, and every
  compute-side write still stamped with the old epoch is fenced once,
  refreshed, and re-issued -- the acceptance matrix (Jacobi, MD) x seeds.
* **The compute node** (node5): nobody may be declared dead (the servers
  are fine, the *writer* is cut off), so the minority side degrades --
  read-only from cache, write-side retries parked on capped backoff --
  until the cut heals, then rejoins and finishes bit-identically.
* **Two of three shards** (node1+node2): the surviving shard cannot
  assemble a majority, so promotion is *denied* and the system waits out
  the cut instead of electing a second primary -- no split brain.

A cut of one shard (node0 or node1) that the barrier root gathers lock
logs from must not kill the root's gather either.
"""

import hashlib

import pytest

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.experiments.harness import run_workload_direct
from repro.faults import partition
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.kernels.md import MDParams, spawn_md
from repro.sim.engine import Timeout

from tests.chaos.conftest import chaos_seeds

pytestmark = pytest.mark.chaos

N_THREADS = 4
JACOBI_PARAMS = JacobiParams(rows=64, cols=256, iterations=3,
                             collect_result=True)
MD_PARAMS = MDParams(n_particles=48, steps=3, collect_energy=False,
                     collect_state=True)
#: Cut instants chosen inside each kernel's run so the severed server
#: still owes writes -- forcing detection, quorum promotion and at least
#: one fenced stale-epoch write rather than the schedule missing.
JACOBI_CUT_AT = 4e-4
MD_CUT_AT = 8.5e-5
CUT_LEN = 3e-4


def _fenced(faults=None) -> SamhitaConfig:
    return SamhitaConfig(manager_shards=3, n_memory_servers=2,
                         replication_factor=2, fencing=True, faults=faults)


def _run_jacobi(config):
    result = run_workload_direct("samhita", N_THREADS, spawn_jacobi,
                                 JACOBI_PARAMS, functional=True,
                                 config=config)
    gdiff, grid = result.threads[0].value
    return (gdiff, hashlib.sha256(grid.tobytes()).hexdigest()), result


def _run_md(config):
    result = run_workload_direct("samhita", N_THREADS, spawn_md, MD_PARAMS,
                                 functional=True, config=config)
    _energies, pos, vel = result.threads[0].value
    return hashlib.sha256(pos.tobytes() + vel.tobytes()).hexdigest(), result


@pytest.fixture(scope="module")
def jacobi_baseline():
    digest, result = _run_jacobi(_fenced())
    return digest, result.stats


@pytest.fixture(scope="module")
def md_baseline():
    digest, _result = _run_md(_fenced())
    return digest


def _assert_fenced_failover_ran(stats: dict) -> None:
    member = stats["membership"]
    assert member.get("promotions", 0) >= 1
    assert member["epoch"] >= 1
    # At least one write arrived stamped with the pre-failover epoch and
    # was rejected by the promoted primary's fence ...
    assert member.get("stale_writes_fenced", 0) >= 1
    # ... after which the sender refreshed its view and re-issued.
    assert member.get("epoch_refreshes", 0) >= 1
    assert stats["replication"].get("failovers", 0) >= 1
    assert stats["faults"].get("partition_drops", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
def test_jacobi_survives_minority_server_partition(jacobi_baseline, seed):
    plan = partition(seed, ("node4",), start=JACOBI_CUT_AT, duration=CUT_LEN)
    digest, result = _run_jacobi(_fenced(plan))
    assert digest == jacobi_baseline[0]
    _assert_fenced_failover_ran(result.stats)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_md_survives_minority_server_partition(md_baseline, seed):
    plan = partition(seed, ("node4",), start=MD_CUT_AT, duration=CUT_LEN)
    digest, result = _run_md(_fenced(plan))
    assert digest == md_baseline
    _assert_fenced_failover_ran(result.stats)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_isolated_compute_node_degrades_then_rejoins(jacobi_baseline, seed):
    """Cut off the node all threads run on: nothing is promoted (the
    servers are healthy), the minority side parks on degraded-mode backoff
    until the heal, then rejoins and produces identical data."""
    plan = partition(seed, ("node5",), start=2e-4, duration=CUT_LEN)
    digest, result = _run_jacobi(_fenced(plan))
    assert digest == jacobi_baseline[0]
    member = result.stats["membership"]
    assert member.get("degraded_waits", 0) > 0
    assert member.get("promotions", 0) == 0
    assert member["epoch"] == 0
    assert result.stats["replication"].get("failovers", 0) == 0
    assert result.stats["faults"].get("partition_drops", 0) > 0


@pytest.mark.parametrize("shard", ["node0", "node1"])
@pytest.mark.parametrize("seed", chaos_seeds())
def test_jacobi_survives_a_cut_gather_peer(jacobi_baseline, seed, shard):
    """Cut a manager shard the Jacobi barrier's root (node2) gathers lock
    logs from: the root's hop to it exhausts its retries, and the root
    must recover against that peer -- its failover, or the heal -- rather
    than wait for a failover of its own that never comes."""
    plan = partition(seed, (shard,), start=JACOBI_CUT_AT, duration=CUT_LEN)
    digest, _result = _run_jacobi(_fenced(plan))
    assert digest == jacobi_baseline[0]


@pytest.mark.parametrize("seed", [chaos_seeds()[0]])
def test_partition_schedule_replays_bit_identically(seed):
    """Same cut, same seed: detection, quorum, fencing and the degraded
    backoffs all draw from deterministic streams."""
    def run():
        plan = partition(seed, ("node4",), start=JACOBI_CUT_AT,
                         duration=CUT_LEN)
        digest, result = _run_jacobi(_fenced(plan))
        return digest, result.elapsed, result.stats["membership"], \
            result.stats["faults"]

    assert run() == run()


def test_fencing_itself_does_not_change_data(jacobi_baseline):
    """The fenced three-shard replicated machine produces the same answer
    as the plain defaults machine -- fencing is pure bookkeeping."""
    digest, _result = _run_jacobi(SamhitaConfig())
    assert digest == jacobi_baseline[0]


def test_healthy_fenced_run_never_bumps_the_epoch(jacobi_baseline):
    member = jacobi_baseline[1]["membership"]
    assert member["epoch"] == 0
    assert member.get("promotions", 0) == 0
    assert member.get("stale_writes_fenced", 0) == 0
    assert member.get("quorum_denials", 0) == 0


# ----------------------------------------------------------------------
# Quorum denial: a minority of shards must not elect a primary.
# ----------------------------------------------------------------------

def _build_fenced(faults=None):
    system = SamhitaSystem.cluster(N_THREADS, config=_fenced(faults))
    tids = [system.add_thread() for _ in range(N_THREADS)]
    return system, tids


def _run_lock_traffic(system, tids, iterations=30):
    """Lock-protected increments against a shard-1 lock spanning the cut
    window; returns (state dict, stats report)."""
    locks = [system.create_lock() for _ in range(3)]
    lock = next(l for l in locks if system.control.shard_index(l) == 1)
    state = {"count": 0, "in_cr": 0, "max_in_cr": 0}

    def body(tid):
        for _ in range(iterations):
            yield from system.acquire_lock(tid, lock)
            state["in_cr"] += 1
            state["max_in_cr"] = max(state["max_in_cr"], state["in_cr"])
            state["count"] += 1
            yield Timeout(1e-6)
            state["in_cr"] -= 1
            yield from system.release_lock(tid, lock)
            yield Timeout(1.5e-5)

    for i, tid in enumerate(tids):
        system.process(body(tid), name=f"t{i}")
    system.run()
    return state, system.stats_report()


@pytest.mark.parametrize("seed", chaos_seeds())
def test_minority_shard_partition_is_quorum_denied(seed):
    """Sever two of three shards mid-traffic: the lone survivor cannot
    assemble a majority, so the detector's declaration is DENIED -- no
    shard fails over, callers wait out the cut, and mutual exclusion
    holds across the heal."""
    plan = partition(seed, ("node1", "node2"), start=2e-4, duration=CUT_LEN)
    system, tids = _build_fenced(plan)
    state, report = _run_lock_traffic(system, tids)
    assert state["count"] == N_THREADS * 30
    assert state["max_in_cr"] == 1
    member = report["membership"]
    assert member.get("quorum_denials", 0) >= 1
    assert member.get("promotions", 0) == 0
    assert member["epoch"] == 0
    assert report["control_plane"].get("shard_failovers", 0) == 0
    # No remap: shard 1 still answers for its own IDs after the heal.
    assert system.control.live_index(1) == 1
    assert report["faults"].get("partition_drops", 0) > 0
