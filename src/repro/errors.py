"""Exception hierarchy shared across the package.

Keeping every domain error under :class:`ReproError` lets callers catch
simulation-level failures without masking programming errors (``TypeError``
and friends propagate untouched).
"""


class ReproError(Exception):
    """Base class for all errors raised by this package.

    Every error carries a retryability classification: ``retryable`` says
    whether the reliable-transport recovery loop may retry the operation at
    all, and ``recovery`` names the action the loop dispatches on
    (``"backoff"``, ``"failover"``) -- ``None`` for fatal errors. Recovery
    code branches on these attributes, never on isinstance chains, so adding
    a new retryable error is a one-line classification, not a grep for every
    handler.
    """

    retryable = False
    recovery = None


class RetryableError:
    """Mixin marking an exception the recovery loop may retry.

    ``recovery`` defaults to ``"backoff"`` (wait, then re-issue the same
    operation); subclasses override it with the specific action their
    failure mode needs.
    """

    retryable = True
    recovery = "backoff"


def recovery_action(exc) -> str | None:
    """The recovery action for ``exc``: ``None`` means fatal (re-raise)."""
    return getattr(exc, "recovery", None) if getattr(exc, "retryable", False) else None


class SimulationError(ReproError):
    """Invalid use of the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    Carries the simulated time of the drain and each blocked process's wait
    reason (the name of the event it is parked on), so a hung protocol run
    reports *what* everyone was waiting for, not just *who* was waiting.
    """

    def __init__(self, blocked, now=None, reasons=None):
        self.blocked = tuple(blocked)
        self.now = now
        self.reasons = dict(reasons or {})
        if self.reasons:
            names = ", ".join(
                f"{p} waiting on {self.reasons.get(getattr(p, 'name', str(p)), '<unknown>')}"
                for p in self.blocked) or "<unknown>"
        else:
            names = ", ".join(str(p) for p in self.blocked) or "<unknown>"
        at = f" at t={now:.9f}s" if now is not None else ""
        super().__init__(f"simulation deadlock{at}; blocked processes: {names}")


class TopologyError(ReproError):
    """A route or component was requested that the topology does not have."""


class CommunicationError(ReproError):
    """A fabric-level communication failure (loss, corruption, dead link)."""


class RetryExhaustedError(RetryableError, CommunicationError):
    """A retransmitted operation gave up after its full retry budget.

    Retryable with ``recovery = "failover"``: the transport itself is out
    of budget, so the only useful retry is against a *different* primary --
    the caller waits for the failure detector to promote a backup and
    re-resolves the home.

    ``timeline`` carries one entry per failed attempt --
    ``{"attempt", "t", "fault", "timeout", "backoff"}`` with the simulated
    send time, the fault process that ate the message (the injector's
    counter name), the policy timeout, and the backoff chosen before the
    next retransmit (None on the final, exhausted attempt) -- so a chaos
    failure is debuggable from the exception alone.
    """

    recovery = "failover"

    def __init__(self, src, dst, category, attempts, now=None, timeline=()):
        self.src, self.dst, self.category = src, dst, category
        self.attempts, self.now = attempts, now
        self.timeline = tuple(timeline)
        at = f" at t={now:.9f}s" if now is not None else ""
        detail = ""
        if self.timeline:
            faults = {}
            for entry in self.timeline:
                fault = entry.get("fault", "?")
                faults[fault] = faults.get(fault, 0) + 1
            summary = ", ".join(f"{n}x {f}" for f, n in sorted(faults.items()))
            first = self.timeline[0].get("t")
            span = (f" over {now - first:.3g}s"
                    if now is not None and first is not None else "")
            detail = f" ({summary}{span})"
        super().__init__(
            f"transfer {src}->{dst} ({category}) still failing after "
            f"{attempts} retransmits{at}{detail}; giving up")


class ReplicationError(CommunicationError):
    """The replication layer could not keep a page available (no live
    replica to promote)."""


class MemoryError_(ReproError):
    """DSM address-space misuse (bad address, double free, overflow)."""


class AllocationError(MemoryError_):
    """The allocator could not satisfy a request."""


class ProtectionError(MemoryError_):
    """An access violated the DSM's page-level protection rules."""


class ConsistencyError(ReproError):
    """Violation of the Regional Consistency model's usage rules."""


class SynchronizationError(ReproError):
    """Invalid synchronization usage (e.g. unlocking a lock not held)."""


class BackendError(ReproError):
    """A runtime backend was misconfigured or misused."""
