"""Chaos cut tests: take node groups of the sharded machine down for a
window, finish with identical data.

The module keeps the name of the split-network profile these scenarios
were first run under; splits are outside the fault model (DESIGN.md §13),
so every cut here is a crash window: a cut node receives nothing for the
window, then comes back. The machine is ``manager_shards=3``,
``n_memory_servers=2``, ``replication_factor=2``: node0-2 are manager
shards, node3/node4 memory servers, node5 the compute node.

A cut of one shard (node0 or node1) that the barrier root gathers lock
logs from must not kill the root's gather, and a cut root shard (node2)
that is failed over but serves a late arrival once its window ends must
close the round in its successor's table. The shard-cut matrix runs lock
traffic from two compute nodes across seven cuts of shards and compute
nodes: whether a cut shard is failed over or waited out, no increment is
lost and the critical section never holds two threads.

The crash-window sweep cuts Jacobi and MD at 98 shapes (start x group x
length) per seed. A cut that drops a barrier's departure replies makes the
parked threads re-issue their arrivals after the window; each is answered
from the round it joined, so every cell returns the fault-free data.
"""

import hashlib

import pytest

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.experiments.harness import run_workload_direct
from repro.faults import FaultPlan, permanent_crash, server_outage
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
JACOBI_CUT_AT = 4e-4
CUT_LEN = 3e-4


def _sharded(faults=None) -> SamhitaConfig:
    return SamhitaConfig(manager_shards=3, n_memory_servers=2,
                         replication_factor=2, faults=faults)


def _cut(seed, group, start, length) -> FaultPlan:
    """``server_outage``'s plan with one crash window per member of
    ``group``, all over ``[start, start + length)``."""
    return FaultPlan(seed=seed, drop_rate=0.01, server_crash_windows=tuple(
        (comp, start, start + length) for comp in group))


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
    return _run_jacobi(_sharded())[0]


@pytest.fixture(scope="module")
def md_baseline():
    return _run_md(_sharded())[0]


@pytest.mark.parametrize("shard", ["node0", "node1"])
@pytest.mark.parametrize("seed", chaos_seeds())
def test_jacobi_survives_a_cut_gather_peer(jacobi_baseline, seed, shard):
    """Cut a manager shard the Jacobi barrier's root (node2) gathers lock
    logs from: under the kill test's tight retry budget the root's hop to
    it exhausts its retries, and the root must wait out that peer's
    failover rather than a failover of its own that never comes."""
    retry = permanent_crash(seed, shard, at=0.0).retry
    plan = FaultPlan(seed=seed, retry=retry, server_crash_windows=(
        (shard, JACOBI_CUT_AT, JACOBI_CUT_AT + CUT_LEN),))
    digest, result = _run_jacobi(_sharded(plan))
    assert digest == jacobi_baseline
    assert result.stats["control_plane"].get("shard_failover_retries", 0) >= 1


@pytest.mark.parametrize("start", [2e-4, 4e-4], ids=["200us", "400us"])
@pytest.mark.parametrize("seed", chaos_seeds())
def test_deposed_shard_closes_its_round_in_the_successors_table(
        jacobi_baseline, seed, start):
    """A 100 us outage of the barrier root (node2) outlives detection: the
    shard is failed over while a late arrival is still retransmitted to
    it, and once the window ends the deposed shard serves that arrival and
    closes the round. The round must roll over in the successor's table;
    in a copy of its own, the successor would close the same generation
    again at the next barrier and see a thread arrive twice."""
    plan = server_outage(seed, "node2", start=start, duration=1e-4)
    digest, result = _run_jacobi(_sharded(plan))
    assert digest == jacobi_baseline
    assert result.stats["control_plane"].get("shard_failovers", 0) >= 1


@pytest.mark.parametrize("seed", [chaos_seeds()[0]])
def test_crash_window_schedule_replays_bit_identically(seed):
    """Same cut, same seed: detection, failover and the deposed server's
    return all draw from deterministic streams."""
    def run():
        plan = server_outage(seed, "node4", start=JACOBI_CUT_AT,
                             duration=CUT_LEN)
        digest, result = _run_jacobi(_sharded(plan))
        return digest, result.elapsed, result.stats["replication"], \
            result.stats["faults"]

    first = run()
    assert first[2].get("failovers", 0) == 1
    assert first == run()


# ----------------------------------------------------------------------
# Shard-cut matrix: lock traffic across cuts of shards and compute nodes.
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
    """Cut a group mid-traffic: a cut shard is failed over or waited out,
    a cut compute node's replies are retransmitted until its window ends,
    and every increment lands under mutual exclusion."""
    plan = _cut(seed, group, start=2e-4, length=CUT_LEN)
    system = SamhitaSystem.cluster(MATRIX_THREADS, config=_sharded(plan))
    tids = [system.add_thread() for _ in range(MATRIX_THREADS)]
    state = _run_lock_traffic(system, tids, MATRIX_ITERATIONS)
    assert state["count"] == MATRIX_THREADS * MATRIX_ITERATIONS
    assert state["max_in_cr"] == 1


# ----------------------------------------------------------------------
# The crash-window sweep: 98 cut shapes per seed, every cell's data exact.
# ----------------------------------------------------------------------

#: Cut starts inside each kernel's run, seconds.
SWEEP_STARTS = {"jacobi": (1e-4, 2e-4, 4e-4, 6e-4),
                "md": (5e-5, 8.5e-5, 1.5e-4)}
#: Every node alone -- shards node0-2 (node2 is both barriers' root),
#: memory servers node3/node4, compute node node5 -- and the two shards
#: node1+node2 at once.
SWEEP_GROUPS = (("node0",), ("node1",), ("node2",), ("node3",), ("node4",),
                ("node5",), ("node1", "node2"))
SWEEP_LENGTHS = (1e-4, 3e-4)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_crash_window_sweep_returns_fault_free_data(jacobi_baseline,
                                                    md_baseline, seed):
    """Every cut shape finishes with the fault-free data. A failure names
    each failing cell and its innermost exception."""
    runs = {"jacobi": (_run_jacobi, jacobi_baseline),
            "md": (_run_md, md_baseline)}
    failures = []
    for kernel, starts in SWEEP_STARTS.items():
        run, baseline = runs[kernel]
        for start in starts:
            for group in SWEEP_GROUPS:
                for length in SWEEP_LENGTHS:
                    plan = _cut(seed, group, start, length)
                    try:
                        digest, _result = run(_sharded(plan))
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
    assert cells == 98
    assert not failures, (f"{len(failures)} of {cells} cells failed:\n"
                          + "\n".join(failures))
