"""The fetch/invalidate race: stale in-flight data must never be installed.

A page fetch snapshots the cache's per-page invalidation epoch before the
request leaves the compute server. If an invalidation (barrier directive,
page-grain acquire, IVY ownership upgrade) lands while the data is in
flight, the epoch moves and the install is dropped -- installing would
resurrect a copy the protocol just declared dead.

These tests drive :func:`repro.core.rtbatch.fetch_batched` -- the path
every fault takes -- directly on the event engine with a precisely-timed
concurrent invalidation, so the race is deterministic rather than
statistical.
"""

import numpy as np

from repro.core import SamhitaConfig, rtbatch
from repro.core.params import INSTALL_PAGE_TIME
from repro.core.system import SamhitaSystem
from repro.memory.pagetable import NO_PAGES
from repro.sim.engine import Timeout


def make_system():
    system = SamhitaSystem.cluster(1, config=SamhitaConfig(functional=True))
    tid = system.add_thread()
    return system, tid


def alloc_page(system, tid):
    """Allocate one shared page and return its page index."""
    out = {}

    def allocator():
        addr = yield from system.malloc(tid, system.config.layout.page_bytes,
                                        shared=True)
        out["addr"] = addr

    system.engine.process(allocator(), name="alloc")
    system.engine.run()
    return out["addr"] // system.config.layout.page_bytes


def fetch(cs, tid, page):
    return rtbatch.fetch_batched(cs, tid, np.array([page]), NO_PAGES, set())


class TestFetchInvalidateRace:
    def test_fetch_without_invalidation_installs(self):
        """Sanity: the undisturbed fetch path installs the page."""
        system, tid = make_system()
        page = alloc_page(system, tid)
        cache = system.cache_of(tid)
        cs = system.compute_servers[system.component_of(tid)]

        system.engine.process(fetch(cs, tid, page),
                              name="fetch")
        system.engine.run()

        assert page in cache.entries
        assert cs.stats.counters.get("stale_fetch_dropped", 0) == 0

    def test_invalidation_mid_flight_drops_install(self):
        """Invalidate after the fetch snapshot, before the install: the
        data that comes back is stale and must be discarded."""
        system, tid = make_system()
        page = alloc_page(system, tid)
        cache = system.cache_of(tid)
        cs = system.compute_servers[system.component_of(tid)]

        def invalidator():
            # Fire strictly after the fetch snapshot (taken at t=0 before
            # any yield) and before the request/transfer/install complete
            # (all of which cost simulated time).
            yield Timeout(1e-9)
            cache.invalidate([page])

        # The fetcher is scheduled first, so its snapshot precedes the
        # invalidation deterministically.
        system.engine.process(fetch(cs, tid, page),
                              name="fetch")
        system.engine.process(invalidator(), name="invalidate")
        system.engine.run()

        assert page not in cache.entries
        assert cs.stats.counters.get("stale_fetch_dropped", 0) >= 1
        # The epoch bump is what tripped the guard.
        assert cache.inval_epoch_of(page) == 1

    def test_refetch_after_race_succeeds(self):
        """The dropped install is not fatal: the next fetch (snapshotting
        the new epoch) installs cleanly -- the protocol retries, it never
        caches stale data."""
        system, tid = make_system()
        page = alloc_page(system, tid)
        cache = system.cache_of(tid)
        cs = system.compute_servers[system.component_of(tid)]

        def invalidator():
            yield Timeout(1e-9)
            cache.invalidate([page])

        system.engine.process(fetch(cs, tid, page),
                              name="fetch")
        system.engine.process(invalidator(), name="invalidate")
        system.engine.run()
        assert page not in cache.entries

        system.engine.process(fetch(cs, tid, page),
                              name="refetch")
        system.engine.run()
        assert page in cache.entries
        assert cs.stats.counters.get("stale_fetch_dropped", 0) == 1

    def test_invalidation_during_the_install_charge_drops_install(self):
        """The data has arrived and the install charge is running; the
        snapshot found no epoch anywhere, so none was taken. An
        invalidation that lands now is seen by the re-validation after
        the charge, which reads the epochs afresh: the page stays out."""
        system, tid = make_system()
        page = alloc_page(system, tid)
        cs = system.compute_servers[system.component_of(tid)]
        start = system.engine.now
        system.engine.process(fetch(cs, tid, page), name="undisturbed")
        system.engine.run()
        took = system.engine.now - start  # 6.915 us
        install = INSTALL_PAGE_TIME  # 0.8 us, the last leg

        system, tid = make_system()
        page = alloc_page(system, tid)
        cache = system.cache_of(tid)
        cs = system.compute_servers[system.component_of(tid)]
        assert not cache.inval_epoch

        def invalidator():
            yield Timeout(took - install / 2)
            cache.invalidate([page])

        system.engine.process(fetch(cs, tid, page), name="fetch")
        system.engine.process(invalidator(), name="invalidate")
        system.engine.run()

        assert page not in cache.entries
        assert cs.stats.counters.get("stale_fetch_dropped", 0) == 1
        assert cache.inval_epoch_of(page) == 1
