"""Property test: the run-length MESI-lite model against a per-line
reference implementation (the obvious dict-based version).

A run-length count is exact, so costs compare with ``==`` and every
counter must match, the cross-socket rule included."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import CoherentCacheModel
from repro.hardware.specs import CacheSpec

SPEC = CacheSpec(line_bytes=64, cold_miss_time=60e-9, coherence_miss_time=80e-9)
NUMA_SPEC = CacheSpec(line_bytes=64, cold_miss_time=60e-9,
                      coherence_miss_time=80e-9, hit_time=1e-9,
                      cross_socket_factor=1.7)


class ReferenceCache:
    """Straightforward per-line implementation of the same protocol.

    Each line is classified on its own and counted; the access is then
    priced from the counts with the model's expression."""

    def __init__(self, spec: CacheSpec, cores_per_socket: int | None = None):
        self.spec = spec
        self.cores_per_socket = cores_per_socket
        self.lines: dict[int, dict] = {}
        self.counters: dict[str, int] = {}

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _remote(self, core, writer):
        cps = self.cores_per_socket
        return (bool(cps) and self.spec.cross_socket_factor != 1.0
                and writer // cps != core // cps)

    def access(self, core, addr, nbytes, is_write):
        if nbytes <= 0:
            return 0.0
        lb = self.spec.line_bytes
        cold = coherence = upgrades = remote = hits = 0
        for line in range(addr // lb, (addr + nbytes - 1) // lb + 1):
            state = self.lines.get(line)
            if state is None:
                state = {"sharers": set(), "writer": None}
                self.lines[line] = state
                cold += 1
            elif core not in state["sharers"]:
                if state["writer"] is not None and state["writer"] != core:
                    coherence += 1
                    remote += self._remote(core, state["writer"])
                else:
                    cold += 1
            elif is_write and len(state["sharers"]) > 1:
                upgrades += 1
            else:
                hits += 1
            if is_write:
                state["sharers"] = {core}
                state["writer"] = core
            else:
                state["sharers"].add(core)
        if coherence and self.cores_per_socket and self.spec.cross_socket_factor != 1.0:
            self._count("cross_socket_misses", remote)
        self._count("cold_misses", cold)
        self._count("coherence_misses", coherence)
        self._count("upgrade_misses", upgrades)
        self._count("hits", hits)
        spec = self.spec
        return (cold * spec.cold_miss_time
                + (coherence + upgrades) * spec.coherence_miss_time
                + remote * (spec.cross_socket_factor - 1.0)
                * spec.coherence_miss_time
                + hits * spec.hit_time)


def assert_same(model, ref, ops):
    for core, addr, nbytes, is_write in ops:
        got = model.access(core, addr, nbytes, is_write)
        want = ref.access(core, addr, nbytes, is_write)
        assert got == want, (core, addr, nbytes, is_write)
    assert model.stats.snapshot() == ref.counters
    assert model.tracked_lines == len(ref.lines)


accesses = st.lists(
    st.tuples(st.integers(0, 7),            # core
              st.integers(0, 4000),         # addr
              st.integers(1, 512),          # nbytes
              st.booleans()),               # is_write
    min_size=1, max_size=60)

# Spans up to 1 MB within 4 MB, with line-aligned or arbitrary ends.
aligned = st.tuples(st.integers(0, 1 << 16), st.integers(1, 1 << 14)).map(
    lambda t: (t[0] * 64, t[1] * 64))
unaligned = st.tuples(st.integers(0, 1 << 22), st.integers(1, 1 << 20))
wide_accesses = st.lists(
    st.tuples(st.integers(0, 7), st.one_of(aligned, unaligned),
              st.booleans()).map(lambda t: (t[0], t[1][0], t[1][1], t[2])),
    min_size=1, max_size=8)

sockets = st.sampled_from([None, 2, 4])


@given(accesses)
@settings(max_examples=120, deadline=None)
def test_run_length_model_matches_reference(ops):
    assert_same(CoherentCacheModel(SPEC), ReferenceCache(SPEC), ops)


@given(accesses, sockets)
@settings(max_examples=120, deadline=None)
def test_cross_socket_rule_matches_reference(ops, cores_per_socket):
    assert_same(CoherentCacheModel(NUMA_SPEC, cores_per_socket),
                ReferenceCache(NUMA_SPEC, cores_per_socket), ops)


@given(wide_accesses, sockets)
@settings(max_examples=20, deadline=None)
def test_wide_spans_match_reference(ops, cores_per_socket):
    assert_same(CoherentCacheModel(NUMA_SPEC, cores_per_socket),
                ReferenceCache(NUMA_SPEC, cores_per_socket), ops)


def test_fragmented_state_then_wide_read_matches_reference():
    # Cores alternate on single lines (a run per line), then one wide read
    # crosses every run, then a wide write collapses them again.
    ops = [(line % 3, line * 64 + 8, 8, line % 2 == 0) for line in range(512)]
    ops += [(3, 0, 512 * 64 + 640, False), (0, 64 * 100, 64 * 50, False),
            (5, 32, 512 * 64, True), (1, 0, 64 * 600, False)]
    for cores_per_socket in (None, 2, 4):
        model = CoherentCacheModel(NUMA_SPEC, cores_per_socket)
        assert_same(model, ReferenceCache(NUMA_SPEC, cores_per_socket), ops)


@given(accesses)
@settings(max_examples=60, deadline=None)
def test_costs_are_nonnegative_and_bounded(ops):
    model = CoherentCacheModel(SPEC)
    for core, addr, nbytes, is_write in ops:
        cost = model.access(core, addr, nbytes, is_write)
        lines = (addr + nbytes - 1) // 64 - addr // 64 + 1
        assert 0.0 <= cost <= lines * SPEC.coherence_miss_time + 1e-18
