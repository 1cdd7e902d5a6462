"""Fault plans: declarative, seeded descriptions of what goes wrong.

A :class:`FaultPlan` is pure configuration -- frozen, hashable, with a
deterministic ``repr`` (so it composes with the experiment result cache's
``cell_key``). It names the fault *processes* (loss, corruption, latency
spikes, duplicate deliveries, link flaps, memory-server crash windows) and
the seed that makes every run over it replay bit-identically; the
:class:`~repro.faults.injector.FaultInjector` turns it into per-message
verdicts, and :class:`RetryPolicy` bounds the recovery protocol that copes.

Corruption is *flagged*, never applied: the simulation models a CRC check at
the receiver that detects the damage and discards the message, so the data
plane is untouched by construction and a corrupted message costs exactly one
retransmit round. Faults may change timing; they can never change data. No
fault touches a stored page or splits the network: memory corruption and
network splits are outside the modelled machine (DESIGN.md §13's profile
table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / capped-exponential-backoff budget for reliable transfers."""

    #: Sender-side retransmission timeout for one message (seconds). Sized a
    #: generous multiple of the worst canonical-fabric round trip so a slow
    #: reply is never mistaken for a lost one.
    timeout: float = 25e-6
    #: Backoff multiplier applied per consecutive retransmit.
    backoff: float = 2.0
    #: Ceiling on the backed-off wait (keeps crash windows survivable
    #: without letting the wait grow unbounded).
    max_backoff: float = 2e-3
    #: Retransmits before the sender gives up with RetryExhaustedError.
    max_retries: int = 64

    def __post_init__(self):
        if self.timeout <= 0:
            raise ReproError("retry timeout must be positive")
        if self.backoff < 1.0:
            raise ReproError("retry backoff must be >= 1.0")
        if self.max_backoff < self.timeout:
            raise ReproError("max_backoff must be >= timeout")
        if self.max_retries < 1:
            raise ReproError("need at least one retry")

    def delay(self, attempt: int, floor: float = 0.0) -> float:
        """Backed-off wait before retransmit number ``attempt`` (1-based).

        ``floor`` raises the base timeout (and, when it exceeds
        ``max_backoff``, the cap) for operations whose *legitimate* reply
        time exceeds the single-message sizing -- a batched bulk fetch
        carrying k lines costs alpha + beta*k on a clean fabric, and a
        retransmit timer shorter than that would fire spuriously. The
        default floor of 0 reproduces the historical single-message law
        bit-for-bit.
        """
        base = self.timeout if floor <= self.timeout else floor
        cap = self.max_backoff if floor <= self.max_backoff else floor
        return min(base * (self.backoff ** (attempt - 1)), cap)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault schedule.

    Rates are per-message probabilities drawn from a ``random.Random``
    seeded with ``seed``; windows are absolute simulated-time intervals
    ``[start, end)``. The all-zero default plan is the *armed-but-silent*
    configuration: the injector is attached, every message flows through its
    decision point, and the simulated trajectory must stay bit-identical to
    a build without the injector (pinned by the faults-off property test
    and ``test_jacobi_functional_matches_seed_capture``).
    """

    seed: int = 0
    #: Per-message probability the message is lost on the wire.
    drop_rate: float = 0.0
    #: Per-message probability of payload corruption. Detected by the
    #: receiver's CRC check and discarded -- timing-wise a drop, counted
    #: separately so the CRC path is visible.
    corrupt_rate: float = 0.0
    #: Per-message probability of a latency spike (congestion, page-pinned
    #: DMA stall...). The spike adds ``latency_spike_time * u`` seconds
    #: with u ~ Uniform[0.5, 1.5).
    latency_spike_rate: float = 0.0
    latency_spike_time: float = 50e-6
    #: Per-message probability the message is delivered but its ACK is lost:
    #: the sender retransmits, so the duplicate costs wire time and a
    #: retransmit, and the receiver discards it (``dup_msgs_discarded``).
    #: One copy is delivered, so the handler runs once.
    duplicate_rate: float = 0.0
    #: Transient link flaps: ``(src, dst, start, end)`` -- every message
    #: between the two components (either direction) during the window is
    #: lost.
    link_flaps: tuple = ()
    #: Memory-server crash/restart windows: ``(component, start, end)`` --
    #: the component is down and receives nothing during the window;
    #: senders back off and retransmit until the restart.
    server_crash_windows: tuple = ()
    #: Permanent crashes: ``(component, at)`` -- from ``at`` on the
    #: component neither sends nor receives, forever. Unlike the transient
    #: windows above there is no restart: survival requires the replication
    #: layer (``SamhitaConfig.replication_factor > 1``) to fail the dead
    #: server's pages over to a backup.
    permanent_crashes: tuple = ()
    #: Gray failure: slow-server windows ``(component, factor, start, end)``
    #: -- during the window every service-time charge at the component is
    #: multiplied by ``factor`` (>= 1.0). The server stays up, answers
    #: everything, drops nothing; it is merely slow, which is exactly the
    #: failure mode heartbeat-based detection cannot see. Pure window
    #: arithmetic, no RNG draw, so arming it never perturbs the
    #: message-verdict stream.
    slow_servers: tuple = ()
    #: Gray failure: per-message probability of a heavy-tailed latency
    #: stall (GC pause, queue buildup behind an elephant flow...). The
    #: stall adds ``jitter_time * u^(-1/jitter_alpha)`` seconds with
    #: u ~ Uniform(0, 1] -- a Pareto tail with index ``jitter_alpha``
    #: (smaller = heavier), capped at 256x the scale. Drawn from a
    #: dedicated RNG stream so arming jitter never perturbs the main
    #: verdict stream.
    jitter_rate: float = 0.0
    jitter_time: float = 20e-6
    jitter_alpha: float = 1.5
    #: Recovery budget used by the reliable-transfer layer.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        for name in ("drop_rate", "corrupt_rate", "latency_spike_rate",
                     "duplicate_rate", "jitter_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {value!r}")
        if self.latency_spike_time < 0:
            raise ReproError("latency_spike_time must be >= 0")
        for window in self.link_flaps:
            if len(window) != 4 or window[2] > window[3]:
                raise ReproError(f"malformed link flap {window!r}; "
                                 "want (src, dst, start, end)")
        for window in self.server_crash_windows:
            if len(window) != 3 or window[1] > window[2]:
                raise ReproError(f"malformed crash window {window!r}; "
                                 "want (component, start, end)")
        for crash in self.permanent_crashes:
            if len(crash) != 2 or crash[1] < 0:
                raise ReproError(f"malformed permanent crash {crash!r}; "
                                 "want (component, at)")
        for window in self.slow_servers:
            if len(window) != 4 or window[1] < 1.0 or window[2] > window[3]:
                raise ReproError(f"malformed slow-server window {window!r}; "
                                 "want (component, factor >= 1, start, end)")
        if self.jitter_time < 0:
            raise ReproError("jitter_time must be >= 0")
        if self.jitter_alpha <= 0:
            raise ReproError("jitter_alpha must be > 0")

    @property
    def silent(self) -> bool:
        """True when no fault process can ever fire (rates zero, no windows)."""
        return (self.drop_rate == 0.0 and self.corrupt_rate == 0.0
                and self.latency_spike_rate == 0.0
                and self.duplicate_rate == 0.0
                and self.jitter_rate == 0.0
                and not self.link_flaps and not self.server_crash_windows
                and not self.permanent_crashes and not self.slow_servers)


#: Canonical chaos profiles for the test harness and CI: each maps a name to
#: a FaultPlan factory taking (seed) -- windows are sized for the chaos
#: suite's small functional runs (elapsed on the order of milliseconds).
def drop_storm(seed: int) -> FaultPlan:
    """Random loss + CRC-detected corruption + duplicate deliveries."""
    return FaultPlan(seed=seed, drop_rate=0.03, corrupt_rate=0.01,
                     duplicate_rate=0.02)


def latency_storm(seed: int) -> FaultPlan:
    """Heavy-tailed latency spikes, no loss."""
    return FaultPlan(seed=seed, latency_spike_rate=0.08,
                     latency_spike_time=80e-6)


def server_outage(seed: int, component: str, start: float,
                  duration: float) -> FaultPlan:
    """One memory-server crash/restart window plus light background loss."""
    return FaultPlan(seed=seed, drop_rate=0.01,
                     server_crash_windows=((component, start, start + duration),))


def permanent_crash(seed: int, component: str, at: float) -> FaultPlan:
    """Kill one memory server forever at ``at`` (the failover kill-test).

    The retry budget is deliberately tight: senders talking to a dead
    server must exhaust and fall into the failover wait within tens of
    microseconds -- comparable to the heartbeat detection time -- instead
    of grinding through the default multi-millisecond budget per message.
    """
    retry = RetryPolicy(timeout=2e-6, backoff=2.0, max_backoff=16e-6,
                        max_retries=10)
    return FaultPlan(seed=seed, permanent_crashes=((component, at),),
                     retry=retry)


def slow_server(seed: int, component: str, factor: float, start: float,
                duration: float) -> FaultPlan:
    """One gray-failing memory server: ``factor``x service-time inflation
    during ``[start, start + duration)``, no drops, no crash.

    The server answers everything -- heartbeats included -- so the
    FailureDetector never suspects it and no failover runs. The profile
    changes timing only: requests queue behind the slow service slot and
    the plain retry loop survives it (measured: DESIGN.md S15).
    """
    return FaultPlan(seed=seed,
                     slow_servers=((component, factor, start, start + duration),))


def jitter_storm(seed: int, rate: float = 0.15,
                 jitter_time: float = 20e-6,
                 jitter_alpha: float = 1.5) -> FaultPlan:
    """Heavy-tailed per-message latency stalls on a dedicated RNG stream.

    Unlike :func:`latency_storm` (bounded uniform spikes on the main
    verdict stream), jitter draws a Pareto-tailed multiplier from its own
    stream: most stalls are small, a few are enormous. A stall makes a
    message late, never lost, so the profile changes timing only and the
    plain retry loop survives it (measured: DESIGN.md S15).
    """
    return FaultPlan(seed=seed, jitter_rate=rate, jitter_time=jitter_time,
                     jitter_alpha=jitter_alpha)
