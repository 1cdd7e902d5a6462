"""The two barrier arrival protocols, pinned.

Flat is a group of one through the one arrival handler
(``Manager.barrier_arrive``); ``tree_barriers`` is the one combining
protocol, whose cell level is skipped wherever it would combine a single
node (a node alone in its cell, and always on one shard). The rows below
are the trial that retired the third protocol (node-combining without a
tree, DESIGN.md S19): on each, the tree equals the better of the two
combining protocols it replaced, to the float.

Also here: the one recall implementation. An IVY upgrade's recall is the
bulk recall with a one-page vector, so it books a trip like any other.
"""

import numpy as np
import pytest

from repro.core import SamhitaConfig
from repro.runtime import Runtime

ROUNDS = 10

#: (shards, threads) -> {tree_barriers: (mean_sync_time, manager requests)}
#: for a barrier-only program of ``ROUNDS`` rounds on the cluster machine
#: (8 threads a node, node i in cell i % shards).
TRIAL = {
    # one shard: no cell level, one request per node (2, then 16)
    (1, 16): {False: (0.00047259999999999793, 160),
              True: (8.565000000000001e-05, 20)},
    (1, 128): {False: (0.003748600000000218, 1280),
               True: (0.00047273999999999765, 160)},
    # one node per cell: cell level skipped
    (4, 32): {False: (0.0011010999999999907, 320),
              True: (0.00028224000000000033, 40)},
    # two and four nodes per cell: nodes + cells requests a round
    (4, 64): {False: (0.0020370999999999905, 640),
              True: (0.00036636874999999955, 120)},
    (4, 128): {False: (0.003909100000000222, 1280),
               True: (0.0004026987499999996, 200)},
}


def _barrier_only(shards, n_threads, tree):
    config = SamhitaConfig(manager_shards=shards, tree_barriers=tree)
    rt = Runtime("samhita", n_threads=n_threads, config=config)
    bar = rt.create_barrier()

    def body(ctx):
        for _ in range(ROUNDS):
            yield from ctx.barrier(bar)

    rt.spawn_all(body)
    result = rt.run()
    return result.mean_sync_time, result.stats["manager"]["requests"]


@pytest.mark.parametrize("tree", [False, True], ids=["flat", "tree"])
@pytest.mark.parametrize("shards,n_threads", sorted(TRIAL))
def test_trial_row_is_pinned(shards, n_threads, tree):
    sync_time, requests = _barrier_only(shards, n_threads, tree)
    want_time, want_requests = TRIAL[shards, n_threads][tree]
    assert requests == want_requests
    assert sync_time == pytest.approx(want_time, rel=1e-9)


def test_a_mixed_machine_skips_the_cell_level_per_cell():
    """Five nodes on four shards: cell 0 combines two nodes, the other
    three cells hold one node each and arrive at the root themselves --
    (2 + 1) + 3 requests a round."""
    _sync_time, requests = _barrier_only(4, 40, True)
    assert requests == 6 * ROUNDS


def test_an_ivy_upgrade_recall_books_a_trip():
    """Thread 0 owns the page (its write upgraded it); thread 1's write
    upgrades in turn and the home recalls thread 0's copy: one recall
    trip in the server's counters and one ``recall`` line in the ledger."""
    rt = Runtime("samhita", n_threads=2,
                 config=SamhitaConfig(coherence="ivy"))
    bar = rt.create_barrier()
    shared = {}

    def first(ctx):
        shared["addr"] = yield from ctx.malloc_shared(64)
        yield from ctx.write(shared["addr"], 8, np.full(8, 1, np.uint8))
        yield from ctx.barrier(bar)
        yield from ctx.barrier(bar)
        data = yield from ctx.read(shared["addr"], 16)
        return data.tolist()

    def second(ctx):
        yield from ctx.barrier(bar)
        yield from ctx.write(shared["addr"] + 8, 8, np.full(8, 2, np.uint8))
        yield from ctx.barrier(bar)

    rt.spawn(first)
    rt.spawn(second)
    result = rt.run()
    assert result.value_of(0) == [1] * 8 + [2] * 8  # the recall merged
    servers = result.stats["memory_servers"]
    assert servers["upgrades"] == 2
    assert servers["recalls"] == servers["recall_trips"] >= 1
    trips = result.stats["round_trips"]
    assert trips["recall_trips"] == servers["recall_trips"]
    ledger_lines = sum(kinds.get("recall", 0)
                       for kinds in trips["by_home"].values())
    assert ledger_lines == servers["recall_trips"]
