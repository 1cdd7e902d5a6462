"""Hardware cache-coherence cost model for the Pthreads baseline.

The paper's baseline is Pthreads on one cache-coherent node. Its only
memory-system effect that matters for the evaluation is *false sharing* of
64-byte lines between cores (visible in the pth_stride series of Figure 11
and in the global/strided compute-time figures at small M).

We model a MESI-like protocol at line granularity with three costs: cold
miss, coherence miss (line last written by another core), and hit (folded
into the per-element compute cost). Line state is a run-length map: sorted
run starts, each run a stretch of lines in one state ``(sharers, last
writer)``. An access splits the map at its span's two ends, prices each
covered run as its length times one miss class, updates the runs and merges
equal neighbours -- exact per line, at O(log runs + runs covered) per access
whatever the span's size. The worst case is O(runs) per access, and the
runs are bounded by the distinct-state stretches the program creates (a
write of a block leaves one run; only interleaved sharing fragments it).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.hardware.specs import CacheSpec
from repro.sim.stats import StatSet

_NO_WRITER = -1
#: A line no core has touched: no sharers, no writer. A touched line always
#: has a sharer (no line is ever dropped from every cache), so ``sharers``
#: alone tells touched from cold.
_UNTOUCHED = (0, _NO_WRITER)


class CoherentCacheModel:
    """Tracks per-line sharing as runs of equal state and prices block
    accesses.

    ``cores_per_socket`` enables the optional NUMA refinement: coherence
    misses whose previous writer sits on another socket pay the
    ``cross_socket_factor`` of the cache spec (FSB/QPI hop).
    """

    def __init__(self, spec: CacheSpec | None = None,
                 cores_per_socket: int | None = None):
        self.spec = spec or CacheSpec()
        self.cores_per_socket = cores_per_socket
        self.stats = StatSet("coherent_cache")
        # Run k covers lines [_starts[k], _starts[k + 1]) in state
        # _states[k] = (sharer bitmask, last writer); the last run is the
        # untouched rest of memory.
        self._starts = [0]
        self._states = [_UNTOUCHED]

    def access(self, core: int, addr: int, nbytes: int, is_write: bool) -> float:
        """Price one block access and update line states; returns seconds.

        A read miss on a line dirtied by another core, or a write to a line
        cached elsewhere, costs a coherence miss; a first-touch costs a cold
        miss; everything else is a hit.
        """
        if nbytes <= 0:
            return 0.0
        if core < 0:
            raise ValueError("core index must be non-negative")
        lb = self.spec.line_bytes
        first = addr // lb
        end = (addr + nbytes - 1) // lb + 1
        starts, states = self._starts, self._states
        # Split the map at both ends: the span is then runs [i, j).
        i = bisect_right(starts, first) - 1
        if starts[i] != first:
            i += 1
            starts.insert(i, first)
            states.insert(i, states[i - 1])
        j = bisect_right(starts, end, i) - 1
        if starts[j] != end:
            j += 1
            starts.insert(j, end)
            states.insert(j, states[j - 1])

        bit = 1 << core
        cps = self.cores_per_socket
        sockets = bool(cps) and self.spec.cross_socket_factor != 1.0
        n_cold = n_coherence = n_upgrades = n_remote = 0
        for lo, hi, (sharers, writer) in zip(starts[i:j], starts[i + 1:j + 1],
                                             states[i:j]):
            if not sharers & bit:
                if writer != _NO_WRITER and writer != core:
                    n_coherence += hi - lo
                    if sockets and writer // cps != core // cps:
                        n_remote += hi - lo
                else:
                    n_cold += hi - lo
            elif is_write and sharers != bit:
                n_upgrades += hi - lo
        if n_coherence and sockets:
            self.stats.incr("cross_socket_misses", n_remote)
        n_hits = end - first - n_cold - n_coherence - n_upgrades

        spec = self.spec
        cost = (n_cold * spec.cold_miss_time
                + (n_coherence + n_upgrades) * spec.coherence_miss_time
                + n_remote * (spec.cross_socket_factor - 1.0)
                * spec.coherence_miss_time
                + n_hits * spec.hit_time)
        counters = self.stats.counters
        counters["cold_misses"] += n_cold
        counters["coherence_misses"] += n_coherence
        counters["upgrade_misses"] += n_upgrades
        counters["hits"] += n_hits

        if is_write:
            states[i] = (bit, core)
            del starts[i + 1:j], states[i + 1:j]
            j = i + 1
        else:
            states[i:j] = [(sharers | bit, writer)
                           for sharers, writer in states[i:j]]
        # Merge equal neighbours, from the run at the span's end down to the
        # run before its start.
        for k in range(j, (i or 1) - 1, -1):
            if states[k] == states[k - 1]:
                del starts[k], states[k]
        return cost

    def reset(self) -> None:
        self._starts = [0]
        self._states = [_UNTOUCHED]
        self.stats.reset()

    @property
    def tracked_lines(self) -> int:
        starts = self._starts
        return sum(starts[k + 1] - starts[k]
                   for k, (sharers, _) in enumerate(self._states) if sharers)
