"""Property tests for the fence and the failure detector's window oracle.

The split-brain safety argument reduces to the fence each receiver keeps
(``Membership.server_fence``, set to the epoch its promotion minted):

* **A stale stamp is rejected exactly when it predates the fence**: for
  any fence epoch and any sender stamp, ``apply_diffs`` raises
  :class:`~repro.errors.StaleEpochError` iff ``stamp < fence``, and an
  accepted stamp merges the diff.
* **A rejected write changes nothing**: the backing page keeps its bytes
  and its version, so a deposed primary cannot launder a single byte.

A second suite pins the injector's window arithmetic
(``came_up_between``) against brute-force sampling of ``server_down`` --
the failure detector's heal-reset correctness hangs off this oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.errors import StaleEpochError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.memory.diff import PageDiff

PAGE = 3
epochs = st.integers(0, 6)


@given(epochs, epochs, st.integers(0, 4088), st.integers(1, 255))
@settings(max_examples=200, deadline=None)
def test_fence_rejects_exactly_the_stale_stamps(fence, stamp, offset, fill):
    system = SamhitaSystem.cluster(1, config=SamhitaConfig(faults=FaultPlan()))
    server = system.memory_servers[0]
    backing = server.backing
    before = (np.arange(backing.layout.page_bytes) % 251).astype(np.uint8)
    backing.write_range(PAGE * before.size, before.size, before)
    version = backing.version_of(PAGE)
    membership = system.resilience.membership
    membership.server_fence[server.index] = fence
    diff = PageDiff(PAGE, [(offset, np.full(8, fill, np.uint8))])
    outcome = {}

    def body():
        try:
            yield from server.apply_diffs([diff], epoch=stamp)
        except StaleEpochError as err:
            outcome["fenced"] = err

    system.process(body())
    system.run()
    assert ("fenced" in outcome) == (stamp < fence)
    after = backing.read_page(PAGE)
    if stamp < fence:
        assert np.array_equal(after, before)
        assert backing.version_of(PAGE) == version
        assert server.stats.get("writes_fenced") == 1
        assert membership.snapshot()["stale_writes_fenced"] == 1
    else:
        assert (after[offset:offset + 8] == fill).all()
        assert backing.version_of(PAGE) == version + 1
        assert server.stats.get("writes_fenced") == 0


# ----------------------------------------------------------------------
# Injector window arithmetic: came_up_between vs brute-force sampling.
# ----------------------------------------------------------------------

# Times snap to a 1 us grid: the oracle reasons over *continuous* time, so
# a cut starting at a denormal like 5e-324 is "preceded by uptime" even
# though no float exists in (0, 5e-324) for the sampler to witness. Grid
# times keep every nonempty gap wide enough to hold a representable sample
# while preserving all the edge-sharing/zero-gap cases that matter.
_us = lambda lo, hi: st.integers(lo, hi).map(lambda n: n * 1e-6)

windows = st.lists(
    st.tuples(_us(0, 1000), _us(1, 300)),
    min_size=0, max_size=4)


@given(windows, _us(0, 1200), _us(1, 400))
@settings(max_examples=200, deadline=None)
def test_came_up_between_matches_sampled_reachability(cuts, since, span):
    until = since + span
    partitions = tuple((("node1",), start, start + length)
                       for start, length in cuts)
    injector = FaultInjector(FaultPlan(seed=3, partitions=partitions))
    # Brute force: reachable at any sampled instant in (since, until]?
    # The oracle reasons over window *gaps*, so sample every window edge
    # inside the interval plus midpoints between consecutive edges.
    edges = sorted({since, until}
                   | {t for _, s, e in partitions for t in (s, e)
                      if since < t <= until})
    samples = set(edges)
    for a, b in zip(edges, edges[1:]):
        samples.add((a + b) / 2)
    samples = [t for t in samples if since < t <= until]
    expected = any(not injector.server_down("node1", t) for t in samples)
    assert injector.came_up_between("node1", since, until) == expected
