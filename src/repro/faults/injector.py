"""The deterministic fault injector.

One injector binds a :class:`~repro.faults.plan.FaultPlan` to a running
fabric. Every non-local message consults :meth:`decide` exactly once, in the
deterministic order the DES executes transfers, and the verdict stream is a
pure function of (plan, message order) -- so a seeded chaos run replays
bit-identically, which is what lets the chaos harness assert that faults
perturb *timing* while the final data stays equal to the fault-free run.

Verdicts are small tuples consumed by ``Fabric._transfer_faulty``:

* ``None``               -- deliver normally (the only verdict an all-zero
  plan can produce, keeping the armed-but-silent trajectory bit-identical);
* ``("drop", counter)``  -- lost on the wire; ``counter`` names which fault
  process fired (``drops_injected``, ``corruptions_detected``,
  ``flap_drops``, ``crash_drops``);
* ``("delay", extra)``   -- deliver after an ``extra``-second latency spike;
* ``("dup", None)``      -- deliver, lose the ACK, retransmit; the
  duplicate costs wire time and a retransmit, and the receiver discards it
  (``dup_msgs_discarded``). One copy is delivered, so the handler runs
  once and no endpoint keeps sequence state.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultPlan, RetryPolicy
from repro.sim.stats import StatSet

_DROP = "drop"
_DELAY = "delay"
_DUP = "dup"


class FaultInjector:
    """Turns a FaultPlan into per-message verdicts and fault counters."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.retry: RetryPolicy = plan.retry
        self._rng = random.Random(plan.seed)
        self.stats = StatSet("faults")
        # Window tuples are hot-path data: hold them as locals-friendly
        # tuples and precompute the earliest window start so the common
        # "no window active" case is one float compare.
        self._flaps = tuple(plan.link_flaps)
        self._crashes = tuple(plan.server_crash_windows)
        self._permanent = tuple(plan.permanent_crashes)
        #: Slow-server windows ``(component, factor, start, end)``: pure
        #: arithmetic consulted by memory-server service charges, no RNG.
        self._slow = tuple(plan.slow_servers)
        self.has_slow_servers = bool(self._slow)
        #: Jitter draws come from a dedicated stream: arming jitter must not
        #: shift the main verdict sequence.
        self._jitter_rng = random.Random(plan.seed ^ 0x9E3779B9)
        #: Failure detector hook, wired by ``repro.resilience`` where
        #: something can fail over. Notified (never consulted) from the
        #: crash-verdict branches, so attaching it cannot change any
        #: verdict or RNG draw.
        self.detector = None

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def decide(self, src: str, dst: str, category: str, now: float):
        """One verdict per message; ``None`` means deliver normally."""
        for comp, at in self._permanent:
            # A permanently dead server neither receives nor sends: its
            # half-finished handlers' replies drop too, so requesters
            # exhaust their retries and fail over instead of consuming a
            # reply from a corpse.
            if now >= at and (src == comp or dst == comp):
                detector = self.detector
                if detector is not None:
                    detector.suspect(comp)
                return (_DROP, "crash_drops")
        for comp, start, end in self._crashes:
            if dst == comp and start <= now < end:
                detector = self.detector
                if detector is not None:
                    detector.suspect(comp)
                return (_DROP, "crash_drops")
        for a, b, start, end in self._flaps:
            if (start <= now < end
                    and ((src == a and dst == b) or (src == b and dst == a))):
                return (_DROP, "flap_drops")
        plan = self.plan
        rng = self._rng
        if plan.drop_rate and rng.random() < plan.drop_rate:
            return (_DROP, "drops_injected")
        if plan.corrupt_rate and rng.random() < plan.corrupt_rate:
            # Flagged corruption: the receiver's CRC check catches it and
            # discards the message -- the payload itself is never touched.
            return (_DROP, "corruptions_detected")
        if plan.latency_spike_rate and rng.random() < plan.latency_spike_rate:
            return (_DELAY, plan.latency_spike_time * (0.5 + rng.random()))
        if plan.duplicate_rate and rng.random() < plan.duplicate_rate:
            return (_DUP, None)
        if plan.jitter_rate:
            # Dedicated stream; both draws (fire? how big?) stay off the
            # main sequence, so a jitter-only plan leaves every other
            # fault process's verdicts untouched.
            jrng = self._jitter_rng
            if jrng.random() < plan.jitter_rate:
                u = 1.0 - jrng.random()  # (0, 1]
                stall = plan.jitter_time * min(
                    u ** (-1.0 / plan.jitter_alpha), 256.0)
                self.stats.counters["jitter_stalls"] += 1
                return (_DELAY, stall)
        return None

    def slow_factor(self, component: str, now: float) -> float:
        """Service-time inflation for ``component`` at ``now`` (1.0 = clean).

        Pure window arithmetic like :meth:`server_down` -- consulting it
        draws no RNG, so a memory server asking on every service charge
        perturbs nothing when no window is active.
        """
        factor = 1.0
        for comp, mult, start, end in self._slow:
            if comp == component and start <= now < end:
                factor *= mult
        return factor

    def server_down(self, component: str, now: float) -> bool:
        """Is ``component`` unreachable at ``now``? (The failure detector's
        modeled heartbeat: a real probe message would just drop on the same
        schedule, so the detector asks the fault model directly instead of
        paying wire traffic per beat.)"""
        for comp, at in self._permanent:
            if comp == component and now >= at:
                return True
        for comp, start, end in self._crashes:
            if comp == component and start <= now < end:
                return True
        return False

    def came_up_between(self, component: str, since: float,
                        until: float) -> bool:
        """Was ``component`` reachable at any instant in ``(since, until]``?

        Exact window arithmetic for the failure detector: a crash window
        that healed between two probes must RESET the consecutive-miss
        count even if a second window has already begun by the next probe
        -- otherwise distinct short windows straddling the probe interval
        accumulate into a false declaration.
        """
        if since >= until:
            return False
        downs = [(s, e) for c, s, e in self._crashes if c == component]
        downs += [(at, float("inf")) for c, at in self._permanent
                  if c == component]
        # Reachable at t iff no down-window covers t. Every window is
        # half-open [s, e) -- matching ``server_down`` -- so merge them
        # exactly (adjacent half-open windows fuse seamlessly): the probe
        # interval (since, until] was entirely dark iff one merged window
        # starts at or before ``since`` and strictly outlasts ``until``.
        merged: list[list[float]] = []
        for start, end in sorted(downs):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return not any(start <= since and until < end
                       for start, end in merged)
