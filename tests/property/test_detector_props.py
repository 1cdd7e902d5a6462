"""Property test for the failure detector's window oracle.

The detector's heal-reset correctness hangs off the injector's window
arithmetic: ``came_up_between`` must agree with brute-force sampling of
``server_down`` over any set of crash windows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

# Times snap to a 1 us grid: the oracle reasons over *continuous* time, so
# a window starting at a denormal like 5e-324 is "preceded by uptime" even
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
    crashes = tuple(("node1", start, start + length)
                    for start, length in cuts)
    injector = FaultInjector(FaultPlan(seed=3, server_crash_windows=crashes))
    # Brute force: reachable at any sampled instant in (since, until]?
    # The oracle reasons over window *gaps*, so sample every window edge
    # inside the interval plus midpoints between consecutive edges.
    edges = sorted({since, until}
                   | {t for _, s, e in crashes for t in (s, e)
                      if since < t <= until})
    samples = set(edges)
    for a, b in zip(edges, edges[1:]):
        samples.add((a + b) / 2)
    samples = [t for t in samples if since < t <= until]
    expected = any(not injector.server_down("node1", t) for t in samples)
    assert injector.came_up_between("node1", since, until) == expected
