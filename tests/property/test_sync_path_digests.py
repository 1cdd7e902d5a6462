"""The sync path against digests recorded before it was restructured.

``sync_path_digests.json`` holds, for every cell of a configuration x fault
profile x kernel matrix, the digest of what the run simulated: the elapsed
time, the canonical stats (engine counters included) and every thread's
clock. The cells were recorded on the tree *before* lock grants and barrier
departures became manager continuations; host work may change, but no
simulated quantity and no engine counter may, so each cell must reproduce
its recorded digest. The faulted cells were re-recorded once since, when a
duplicate delivery came to be counted once (``dup_msgs_discarded``) instead
of as two sequence-check counters: with those three counters stripped from
``faults``, every cell's digest was equal before and after. When lock
leases were deleted, their axis went with them: the 216 cells left (of 408)
keep the digests recorded with leases off, under names without the
``-nolease`` token. The 144 faulted cells were re-recorded again when every
fault plan came to arm fencing epochs, which adds a ``membership`` stats
namespace: with that namespace stripped, all 216 digests were equal before
and after. They were re-recorded once more when fencing epochs were deleted,
which takes the namespace away again; with it stripped from the old runs,
all 216 digests were equal before and after.

The machine puts every manager shard on a compute node, so with
``local_sync_optimization`` on some threads take the co-located path and the
rest the remote one. Its six two-core nodes give the tree every shape it
has: two threads per node leader, and on four shards two cells of two
nodes (a cell level) beside two cells of one (skipped).

To re-record on a checkout whose sync path is the reference::

    PYTHONPATH=src python tests/property/test_sync_path_digests.py > \\
        tests/property/sync_path_digests.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import sys

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.faults import drop_storm, latency_storm
from repro.hardware.specs import PENRYN_NODE, NodeSpec
from repro.hardware.topology import cluster_topology
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
from repro.kernels.pipeline import PipelineParams, spawn_pipeline
from repro.runtime import Runtime

PINS_PATH = pathlib.Path(__file__).parent / "sync_path_digests.json"

THREADS = 12
NODE = NodeSpec(name="two-core", cpu=PENRYN_NODE.cpu, sockets=1,
                cores_per_socket=2)


def _lock_barrier_thread(ctx, locks, bar, rounds):
    """A private lock and the global barrier per round (the data-free
    half of the suite's ``sync_storm``)."""
    own = locks[ctx.tid]
    for _ in range(rounds):
        yield from ctx.lock(own)
        yield from ctx.compute(1)
        yield from ctx.unlock(own)
        yield from ctx.barrier(bar)


def _spawn_lock_barrier(rt, rounds):
    locks = [rt.create_lock() for _ in range(rt.n_threads)]
    rt.spawn_all(_lock_barrier_thread, locks, rt.create_barrier(), rounds)


KERNELS = {
    "local": (spawn_microbench,
              MicrobenchParams(N=1, M=1, S=1, allocation=Allocation.LOCAL)),
    "global": (spawn_microbench,
               MicrobenchParams(N=1, M=1, S=1, allocation=Allocation.GLOBAL)),
    "lock_barrier": (_spawn_lock_barrier, 3),
    "pipeline": (spawn_pipeline,
                 PipelineParams(items=6, capacity=2, work_per_item=50)),
}

FAULTS = {"clean": None, "drop_storm": drop_storm(11),
          "latency_storm": latency_storm(11)}


def _configs() -> dict[str, SamhitaConfig]:
    out = {}
    for tree, cache, shards, local in itertools.product(
            (False, True), (False, True), (1, 4), (False, True)):
        name = "-".join(("tree" if tree else "flat",
                         "cache" if cache else "nocache",
                         f"s{shards}",
                         "local" if local else "remote"))
        out[name] = SamhitaConfig(
            functional=False, tree_barriers=tree, lock_owner_cache=cache,
            manager_shards=shards, local_sync_optimization=local)
    out["ivy"] = SamhitaConfig(functional=False, coherence="ivy")
    out["page_grain"] = SamhitaConfig(functional=False, regc_fine_grain=False)
    return out


CONFIGS = _configs()


def _canonical(value):
    if isinstance(value, dict):
        return sorted((str(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _system(config: SamhitaConfig) -> SamhitaSystem:
    """Node 0 holds the memory server; shard k sits on compute node k."""
    n_shards = config.manager_shards
    n_compute = THREADS // NODE.cores
    topo = cluster_topology(n_compute + 1, node=NODE)
    compute = [f"node{i}" for i in range(1, n_compute + 1)]
    return SamhitaSystem(topo, config, memserver_components=["node0"],
                         compute_components=compute,
                         manager_components=compute[:n_shards])


def cell_digest(config_name: str, fault_name: str, kernel_name: str) -> str:
    config = CONFIGS[config_name]
    plan = FAULTS[fault_name]
    if plan is not None:
        config = config.with_(faults=plan)
    rt = Runtime("samhita", n_threads=THREADS, config=config,
                 system=_system(config))
    spawn_fn, params = KERNELS[kernel_name]
    spawn_fn(rt, params)
    try:
        result = rt.run()
    finally:
        rt.backend.dispose()
    clocks = [(tid, t.clock.compute, t.clock.sync,
               sorted(t.clock.detail.items()))
              for tid, t in sorted(result.threads.items())]
    payload = repr((result.elapsed, _canonical(result.stats), clocks))
    return hashlib.sha256(payload.encode()).hexdigest()


def cells():
    return [f"{c}/{f}/{k}" for c in CONFIGS for f in FAULTS for k in KERNELS]


def test_sync_path_matches_recorded_digests() -> None:
    pins = json.loads(PINS_PATH.read_text())
    assert sorted(pins) == sorted(cells())
    diverged = [cell for cell in sorted(pins)
                if cell_digest(*cell.split("/")) != pins[cell]]
    assert not diverged, f"{len(diverged)} cells diverged: {diverged[:8]}"


if __name__ == "__main__":
    json.dump({cell: cell_digest(*cell.split("/")) for cell in cells()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
