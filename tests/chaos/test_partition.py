"""Chaos partition tests: sever node groups, finish with identical data.

Two canonical cuts over the replicated, sharded cluster
(``manager_shards=3``, ``n_memory_servers=2``, ``replication_factor=2``;
any fault plan arms fencing epochs -- node0-2 are manager shards,
node3/node4 memory servers, node5 the compute node):

* **Minority memory server** (node4): the failure detector declares it
  gone, promotes its backup under a fresh fencing epoch, and every
  compute-side write still stamped with the old epoch is fenced once,
  refreshed, and re-issued -- the acceptance matrix (Jacobi, MD) x seeds.
* **The compute node** (node5): nobody may be declared dead (the servers
  are fine, the *writer* is cut off), so the minority side degrades --
  read-only from cache, write-side retries parked on capped backoff --
  until the cut heals, then rejoins and finishes bit-identically.

A cut of one shard (node0 or node1) that the barrier root gathers lock
logs from must not kill the root's gather either, and a cut root shard
(node2) that is failed over but serves a late arrival after the heal must
close the round in its successor's table. The shard-cut matrix
runs lock traffic from two compute nodes across seven cuts of shards,
memory servers and compute nodes: whether a cut shard is failed over or
waited out, no increment is lost and the critical section never holds two
threads -- a failover hands the successor the dead shard's own sync
state, so there is no second copy for a minority side to diverge from.

The partition sweep cuts Jacobi and MD at 84 shapes (start x group x
length) per seed. A cut that drops a barrier's departure replies makes the
parked threads re-issue their arrivals after the heal; each is answered
from the round it joined, so every cell returns the fault-free data.
"""

import hashlib

import pytest

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.experiments.harness import run_workload_direct
from repro.faults import FaultPlan, partition
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
#: still owes writes -- forcing detection, promotion and at least one
#: fenced stale-epoch write rather than the schedule missing.
JACOBI_CUT_AT = 4e-4
MD_CUT_AT = 8.5e-5
CUT_LEN = 3e-4


def _fenced(faults=None) -> SamhitaConfig:
    return SamhitaConfig(manager_shards=3, n_memory_servers=2,
                         replication_factor=2, faults=faults)


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
    # An all-zero plan: fencing armed, nothing injected.
    digest, result = _run_jacobi(_fenced(FaultPlan()))
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


@pytest.mark.parametrize("group, start", [(("node4", "node2"), 4e-4),
                                          (("node1", "node2"), 2e-4)],
                         ids=["node4+node2", "node1+node2"])
@pytest.mark.parametrize("seed", chaos_seeds())
def test_deposed_shard_closes_its_round_in_the_successors_table(
        jacobi_baseline, seed, group, start):
    """A 100 us cut of the barrier root (node2) outlives detection: the
    shard is failed over while a late arrival is still retrying towards
    it, and after the heal the deposed shard serves that arrival and
    closes the round. The round must roll over in the successor's table;
    in a copy of its own, the successor would close the same generation
    again at the next barrier and fire its flush event twice."""
    plan = partition(seed, group, start=start, duration=1e-4)
    digest, result = _run_jacobi(_fenced(plan))
    assert digest == jacobi_baseline[0]
    assert result.stats["control_plane"].get("shard_failovers", 0) >= 1


@pytest.mark.parametrize("seed", [chaos_seeds()[0]])
def test_partition_schedule_replays_bit_identically(seed):
    """Same cut, same seed: detection, fencing and the degraded backoffs
    all draw from deterministic streams."""
    def run():
        plan = partition(seed, ("node4",), start=JACOBI_CUT_AT,
                         duration=CUT_LEN)
        digest, result = _run_jacobi(_fenced(plan))
        return digest, result.elapsed, result.stats["membership"], \
            result.stats["faults"]

    assert run() == run()


def test_fencing_itself_does_not_change_data(jacobi_baseline):
    """The fenced three-shard replicated machine (a silent plan) produces
    the same answer as the plain defaults machine -- fencing is pure
    bookkeeping."""
    digest, _result = _run_jacobi(SamhitaConfig())
    assert digest == jacobi_baseline[0]


def test_healthy_fenced_run_never_bumps_the_epoch(jacobi_baseline):
    member = jacobi_baseline[1]["membership"]
    assert member["epoch"] == 0
    assert member.get("promotions", 0) == 0
    assert member.get("stale_writes_fenced", 0) == 0


# ----------------------------------------------------------------------
# Shard-cut matrix: lock traffic across cuts of shards, servers and nodes.
# ----------------------------------------------------------------------

#: 16 threads fill two compute nodes (node5, node6).
MATRIX_THREADS = 16
MATRIX_ITERATIONS = 30
#: Every group is cut at 200 us for 300 us: shard node1 and the pair
#: node1+node2, each alone and with either compute node, and shard node0
#: with compute node node5.
MATRIX_CUTS = (("node1",), ("node1", "node2"), ("node1", "node2", "node5"),
               ("node1", "node2", "node6"), ("node1", "node5"),
               ("node1", "node6"), ("node0", "node5"))


def _run_lock_traffic(system, tids, iterations):
    """Lock-protected increments against a shard-1 lock spanning the cut
    window; returns the state dict."""
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
    return state


@pytest.mark.parametrize("group", MATRIX_CUTS, ids="+".join)
@pytest.mark.parametrize("seed", chaos_seeds())
def test_shard_cut_keeps_mutual_exclusion(seed, group):
    """Cut a group mid-traffic: a cut shard is failed over (fenced) or
    waited out, a cut compute node degrades until the heal, and every
    increment lands under mutual exclusion."""
    plan = partition(seed, group, start=2e-4, duration=CUT_LEN)
    system = SamhitaSystem.cluster(MATRIX_THREADS, config=_fenced(plan))
    tids = [system.add_thread() for _ in range(MATRIX_THREADS)]
    state = _run_lock_traffic(system, tids, MATRIX_ITERATIONS)
    assert state["count"] == MATRIX_THREADS * MATRIX_ITERATIONS
    assert state["max_in_cr"] == 1


# ----------------------------------------------------------------------
# The partition sweep: 84 cut shapes per seed, every cell's data exact.
# ----------------------------------------------------------------------

#: Cut starts inside each kernel's run, seconds.
SWEEP_STARTS = {"jacobi": (1e-4, 2e-4, 4e-4, 6e-4),
                "md": (5e-5, 8.5e-5, 1.5e-4)}
#: Memory servers (node3, node4), the compute node (node5) and manager
#: shards (node1, node2: the Jacobi and MD barriers' root), alone and in
#: pairs.
SWEEP_GROUPS = (("node3",), ("node4",), ("node5",), ("node3", "node1"),
                ("node4", "node2"), ("node1", "node2"))
SWEEP_LENGTHS = (1e-4, 3e-4)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_partition_sweep_returns_fault_free_data(jacobi_baseline, md_baseline,
                                                 seed):
    """Every cut shape finishes with the fault-free data. A failure names
    each failing cell and its innermost exception."""
    runs = {"jacobi": (_run_jacobi, jacobi_baseline[0]),
            "md": (_run_md, md_baseline)}
    failures = []
    for kernel, starts in SWEEP_STARTS.items():
        run, baseline = runs[kernel]
        for start in starts:
            for group in SWEEP_GROUPS:
                for length in SWEEP_LENGTHS:
                    plan = partition(seed, group, start=start,
                                     duration=length)
                    try:
                        digest, _result = run(_fenced(plan))
                        outcome = None if digest == baseline else "wrong data"
                    except Exception as exc:  # noqa: BLE001 - reported
                        while exc.__cause__ is not None:
                            exc = exc.__cause__
                        outcome = f"{type(exc).__name__}: {exc}"[:160]
                    if outcome is not None:
                        failures.append(
                            f"{kernel} {'+'.join(group)} "
                            f"start={start * 1e6:g}us "
                            f"length={length * 1e6:g}us seed={seed}: "
                            f"{outcome}")
    cells = sum(map(len, SWEEP_STARTS.values())) * len(SWEEP_GROUPS) \
        * len(SWEEP_LENGTHS)
    assert not failures, (f"{len(failures)} of {cells} cells failed:\n"
                          + "\n".join(failures))
