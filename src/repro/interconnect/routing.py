"""Fabric: executes transfers over routed paths inside the simulation.

Pricing uses the cut-through model: end-to-end time is the sum of per-hop
latencies plus one serialization term at the bottleneck (slowest) hop --
multi-hop messages pipeline, they are not store-and-forwarded.

If the bottleneck hop is marked ``contended`` the serialization time is spent
holding that hop's DES resource, so concurrent transfers queue behind each
other -- this is what makes the shared PCIe bus of the heterogeneous-node
configuration a real bottleneck under many coprocessor threads.
"""

from __future__ import annotations

from collections import defaultdict
from math import ceil
from typing import TYPE_CHECKING

from repro.errors import RetryExhaustedError
from repro.interconnect.base import LinkModel
from repro.sim.engine import AdvanceTo, Engine, Timeout
from repro.sim.resources import Resource
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.topology import Topology

#: Memoized per-category stat keys: transfer() runs hundreds of thousands of
#: times per simulation and the f-string formatting showed up in profiles.
_CATEGORY_KEYS: dict[str, tuple[str, str]] = {}


def _category_keys(category: str) -> tuple[str, str]:
    keys = _CATEGORY_KEYS.get(category)
    if keys is None:
        keys = (f"messages.{category}", f"bytes.{category}")
        _CATEGORY_KEYS[category] = keys
    return keys


class Fabric:
    """Binds a topology to an engine and moves bytes across it.

    ``_route_plans``, ``_flights`` and ``_path_times`` assume the topology
    no longer changes once the fabric has priced a route:
    ``Topology.connect`` clears only the topology's own route cache, and
    nothing calls it after a ``Fabric`` exists.
    """

    def __init__(self, engine: Engine, topology: "Topology"):
        self.engine = engine
        self.topology = topology
        self.stats = StatSet("fabric")
        #: Bytes moved per (src, dst) pair -- the traffic matrix that makes
        #: hot spots (e.g. a single memory server's in-degree) visible.
        self.traffic: dict[tuple[str, str], int] = defaultdict(int)
        self._resources: dict[int, Resource] = {}
        #: Flattened per-(src, dst) route data -- transfer() runs hundreds of
        #: thousands of times per simulation and the per-call route lookup
        #: plus per-link serialize_time() method calls dominated its cost.
        self._route_plans: dict[tuple[str, str], tuple] = {}
        #: ``(src, dst, nbytes) -> latency + serialize`` for every message
        #: shape :meth:`transfer_inline` has priced as a pure delay (remote,
        #: uncontended, no injector): all that ``SCL.flight`` looks up.
        self._flights: dict[tuple[str, str, int], float] = {}
        #: ``(src, dst, nbytes) -> path_time``. Kept apart from the route
        #: plans' ``size_cache``: a ``size_cache`` miss is what registers a
        #: ``_flights`` entry.
        self._path_times: dict[tuple[str, str, int], float] = {}
        #: Fault injector, or None. Attached via :meth:`attach_injector`,
        #: which shadows ``transfer_inline`` on the instance -- the clean
        #: path below carries zero injection overhead when disabled.
        self._injector = None

    def _resource_for(self, link: LinkModel) -> Resource:
        key = id(link)
        res = self._resources.get(key)
        if res is None:
            res = Resource(self.engine, capacity=1, name=f"link[{link.name}]")
            self._resources[key] = res
        return res

    def _build_plan(self, src: str, dst: str) -> tuple:
        """Flatten one route into ``(latency_sum, hops, size_cache)``.

        ``hops`` is ``None`` for local delivery, else a tuple of
        ``(link, bandwidth, per_packet_overhead, mtu)`` per hop. The latency
        sum accumulates in route order so it is bit-identical to the
        per-transfer loop it replaces. ``size_cache`` memoizes
        ``nbytes -> (serialize, bottleneck)``: message sizes cluster on a
        handful of values (control bytes, whole pages, row diffs), so the
        serialize arithmetic runs once per distinct size -- reusing the
        computed float is exact by construction.
        """
        links = self.topology.route(src, dst)
        if not links:
            plan = (0.0, None, None)
        elif len(links) == 1:
            link = links[0]
            plan = (link.latency,
                    ((link, link.bandwidth, link.per_packet_overhead,
                      link.mtu),), {})
        else:
            latency = 0.0
            hops = []
            for link in links:
                latency += link.latency
                hops.append((link, link.bandwidth, link.per_packet_overhead,
                             link.mtu))
            plan = (latency, tuple(hops), {})
        self._route_plans[(src, dst)] = plan
        return plan

    def path_time(self, src: str, dst: str, nbytes: int) -> float:
        """Analytic uncontended transfer time (no simulation side effects),
        priced once per ``(src, dst, nbytes)``."""
        key = (src, dst, nbytes)
        try:
            return self._path_times[key]
        except KeyError:
            pass
        links = self.topology.route(src, dst)
        if not links:
            time = 0.0
        else:
            time = (sum(link.latency for link in links)
                    + max(link.serialize_time(nbytes) for link in links))
        self._path_times[key] = time
        return time

    def transfer(self, src: str, dst: str, nbytes: int, category: str = "data",
                 lead: float = 0.0, tail: float = 0.0,
                 timeout_floor: float = 0.0):
        """Generator: complete one message transfer, with queueing.

        Compatibility wrapper over :meth:`transfer_inline` for callers that
        need a generator unconditionally (tests, cold paths); the hot
        protocol paths call :meth:`transfer_inline` directly to skip the
        generator machinery when the transfer completes inline.
        """
        t = self.transfer_inline(src, dst, nbytes, category, lead, tail,
                                 timeout_floor)
        if t is not None:
            yield from t

    def transfer_inline(self, src: str, dst: str, nbytes: int,
                        category: str = "data",
                        lead: float = 0.0, tail: float = 0.0,
                        timeout_floor: float = 0.0):
        """Charge one message transfer and complete it inline if possible.

        Plain function: returns ``None`` when the whole transfer finished
        within this call (counters charged, clock advanced via the same
        inline-advance rule ``_step`` applies to yielded commands), else
        what the caller must ``yield from`` for the rest: a generator for
        the remaining legs, or -- the whole transfer being one resume
        instant -- the one command in a tuple, which hands it to the engine
        with no generator frame in between. Accounts per-category message
        and byte counts in :attr:`stats` either way.

        ``lead``/``tail`` fuse a fixed local delay the caller would otherwise
        charge as its own ``Timeout`` immediately before/after the transfer
        (diff scan, diff apply, page install) into the same suspension. The
        resume instant is accumulated with exactly the per-leg float rounding
        of the unfused sequence -- ``fl(fl(now + lead) + ...)`` -- so the
        simulated trajectory is bit-identical; only the heap traffic drops.
        Fusion requires the intervening code to be side-effect-free, which
        holds for every call site (counter increments commute).

        ``timeout_floor`` sizes the retransmission timer for messages whose
        legitimate reply time exceeds the single-message law (a bulk fetch
        request awaiting an alpha + beta*lines reply); the clean path has no
        retransmit timer, so it is consumed only by the injection shim.
        """
        # Subscript + KeyError, not .get(): a category or a route is new a
        # handful of times per run (message sizes are not that tame).
        try:
            msg_key, bytes_key = _CATEGORY_KEYS[category]
        except KeyError:
            msg_key, bytes_key = _category_keys(category)
        counters = self.stats.counters
        counters[msg_key] += 1
        counters["messages"] += 1
        counters["bytes"] += nbytes
        counters[bytes_key] += nbytes
        key = (src, dst)
        self.traffic[key] += nbytes
        try:
            latency, hops, size_cache = self._route_plans[key]
        except KeyError:
            latency, hops, size_cache = self._build_plan(src, dst)
        engine = self.engine
        if hops is None:
            # Local delivery is free; the lead/tail legs still cost their
            # time.
            if lead and not engine.try_advance(lead):
                return self._slow_local(lead, tail)
            if tail and not engine.try_advance(tail):
                return (Timeout(tail),)
            return None
        cached = size_cache.get(nbytes)
        if cached is not None:
            serialize, bottleneck = cached
        else:
            serialize = -1.0
            bottleneck = hops[0][0]
            for link, bandwidth, ppo, mtu in hops:
                # Per-hop serialize_time() inlined from LinkModel (same
                # float ops in the same order).
                if nbytes <= 0:
                    s = 0.0
                else:
                    s = nbytes / bandwidth
                    if mtu and ppo:
                        s += ceil(nbytes / mtu) * ppo
                    elif ppo:
                        s += ppo
                # max with the first-maximum tie rule.
                if s > serialize:
                    serialize = s
                    bottleneck = link
            size_cache[nbytes] = (serialize, bottleneck)
            if self._injector is None and not (
                    bottleneck.contended and serialize > 0.0):
                self._flights[(src, dst, nbytes)] = latency + serialize
        if bottleneck.contended and serialize > 0.0:
            return self._slow_contended(latency, serialize, bottleneck,
                                        lead, tail)
        # The whole transfer is one resume instant, accumulated with the
        # per-leg rounding of the unfused sequence.
        target = engine.now
        if lead:
            target = target + lead
        target = target + (latency + serialize)
        if tail:
            target = target + tail
        # Engine.try_advance_to inlined (target >= now by construction):
        # transfers are the single hottest advance site.
        if target < engine._next_time and target <= engine._until:
            engine.now = target
            engine._coalesced += 1
            return None
        return (AdvanceTo(target),)

    # -- fault injection --------------------------------------------------
    def attach_injector(self, injector) -> None:
        """Arm fault injection on this fabric instance.

        Installs :meth:`_transfer_inline_faulty` as an *instance* attribute
        shadowing the class-level ``transfer_inline``, so the clean hot path
        stays byte-for-byte unchanged when no injector is attached -- there
        is no ``if self._injector`` branch to pay on the fault-free build.
        """
        self._injector = injector
        self.transfer_inline = self._transfer_inline_faulty
        self._flights.clear()  # and nothing is priced as a flight while armed

    def detach_injector(self) -> None:
        """Disarm injection; the class-level clean path takes over again."""
        self._injector = None
        self.__dict__.pop("transfer_inline", None)

    def _transfer_inline_faulty(self, src: str, dst: str, nbytes: int,
                                category: str = "data",
                                lead: float = 0.0, tail: float = 0.0,
                                timeout_floor: float = 0.0):
        """Injection shim: consult the injector once per wire message.

        Local delivery (``src == dst``) never touches the wire, so it gets
        no verdict and -- crucially for determinism -- consumes no RNG
        draws. A ``None`` verdict falls straight through to the clean class
        method, which keeps an all-zero :class:`FaultPlan` bit-identical to
        the injector-absent build.
        """
        if src != dst:
            verdict = self._injector.decide(src, dst, category,
                                            self.engine.now)
            if verdict is not None:
                return self._transfer_faulty(verdict, src, dst, nbytes,
                                             category, lead, tail,
                                             timeout_floor)
        return Fabric.transfer_inline(self, src, dst, nbytes, category,
                                      lead, tail)

    def _transfer_faulty(self, verdict, src, dst, nbytes, category,
                         lead, tail, timeout_floor=0.0):
        """Generator: one message under a fault verdict, with recovery.

        Models a reliable transport (InfiniBand RC style): a lost or
        CRC-rejected message costs the sender a timeout, then a capped
        exponential backoff and a retransmit that gets a fresh verdict.
        Duplicate delivery models a lost ACK -- the payload lands, the
        sender retransmits anyway, and the receiver discards the replay:
        the duplicate costs wire time and a retransmit, and the handler
        runs once because one copy is delivered. Faults therefore
        perturb *timing and message counts* but never the data the protocol
        layers observe.
        """
        engine = self.engine
        inj = self._injector
        counters = inj.stats.counters
        retry = inj.retry
        # ``timeout_floor``: 0 for single messages (the static policy law),
        # the alpha + beta*lines cost for bulk trips.
        timeout_used = (retry.timeout if timeout_floor < retry.timeout
                        else timeout_floor)
        clean = Fabric.transfer_inline
        attempt = 0
        timeline: list[dict] = []
        while verdict is not None:
            kind, arg = verdict
            if kind == "delay":
                # Latency spike: the message is late, not lost.
                counters["delay_spikes"] += 1
                if not engine.try_advance(arg):
                    yield Timeout(arg)
                break
            if kind == "dup":
                # Delivered fine, but the ACK is lost: the sender times out
                # and retransmits; the receiver discards the replay. One
                # copy is delivered, so the handler body runs once.
                t = clean(self, src, dst, nbytes, category, lead, tail)
                if t is not None:
                    yield from t
                attempt += 1
                counters["timeouts"] += 1
                counters["retries"] += 1
                delay = retry.delay(attempt, timeout_floor)
                if not engine.try_advance(delay):
                    yield Timeout(delay)
                counters["retransmits"] += 1
                counters["dup_msgs_discarded"] += 1
                # The replay costs the wire again but none of the fused
                # local work (diff scan/install already happened once).
                t = clean(self, src, dst, nbytes, category, 0.0, 0.0)
                if t is not None:
                    yield from t
                return
            # kind == "drop": lost on the wire; ``arg`` names which fault
            # process fired (drops_injected, corruptions_detected,
            # flap_drops, crash_drops).
            counters[arg] += 1
            counters["drops"] += 1
            attempt += 1
            if attempt > retry.max_retries:
                timeline.append({"attempt": attempt, "t": engine.now,
                                 "fault": arg, "timeout": timeout_used,
                                 "backoff": None})
                raise RetryExhaustedError(src, dst, category, attempt - 1,
                                          now=engine.now, timeline=timeline)
            counters["timeouts"] += 1
            counters["retries"] += 1
            delay = retry.delay(attempt, timeout_floor)
            timeline.append({"attempt": attempt, "t": engine.now,
                             "fault": arg, "timeout": timeout_used,
                             "backoff": delay})
            if not engine.try_advance(delay):
                yield Timeout(delay)
            counters["retransmits"] += 1
            verdict = inj.decide(src, dst, category, engine.now)
        t = clean(self, src, dst, nbytes, category, lead, tail)
        if t is not None:
            yield from t

    # -- slow-path generators for transfer_inline ------------------------
    def _slow_local(self, lead, tail):
        yield Timeout(lead)
        if tail and not self.engine.try_advance(tail):
            yield Timeout(tail)

    def _slow_contended(self, latency, serialize, bottleneck, lead, tail):
        engine = self.engine
        if lead:
            # fl(fl(now + lead) + latency): the unfused two-leg rounding.
            target = (engine.now + lead) + latency
            if not engine.try_advance_to(target):
                yield AdvanceTo(target)
        elif not engine.try_advance(latency):
            yield Timeout(latency)
        yield from self._resource_for(bottleneck).use(serialize)
        if tail and not engine.try_advance(tail):
            yield Timeout(tail)

    def link_utilization(self) -> dict[str, float]:
        """Busy seconds per contended link (diagnostic)."""
        out = {}
        for res in self._resources.values():
            out[res.name] = res.total_busy_time
        return out

    def top_talkers(self, n: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The n heaviest (src, dst) byte flows, descending."""
        return sorted(self.traffic.items(), key=lambda kv: -kv[1])[:n]

    def in_bytes(self, component: str) -> int:
        """Total bytes received by one component."""
        return sum(v for (src, dst), v in self.traffic.items()
                   if dst == component)

    def out_bytes(self, component: str) -> int:
        """Total bytes sent by one component."""
        return sum(v for (src, dst), v in self.traffic.items()
                   if src == component)
