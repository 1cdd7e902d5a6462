"""Recovery-side state machines: idempotent RPC delivery and the watchdog.

The reliable-transfer layer (see :mod:`repro.faults.injector` and
``Fabric``) guarantees at-least-once delivery; these classes supply the
exactly-once semantics on top of it:

* :class:`RpcDedup` -- per-endpoint sequence numbering. Every RPC-bearing
  message carries a per-peer sequence number; a retransmit of an
  already-delivered number (the reply was lost, not the request) is dropped
  instead of re-executing the handler, which is what makes alloc/lock/
  barrier/cond and fetch/recall/diff-apply handlers idempotent under
  retransmission.
* :class:`DeadlockWatchdog` -- an :attr:`Engine.deadlock_hooks` entry that
  runs when the event heap drains with processes still blocked. It asks its
  registered recoverers (lost-message re-arm, lock-lease expiry) whether
  any blocked process is waiting on something that can still happen; only
  when every recoverer declines does the enriched :class:`DeadlockError`
  propagate.
"""

from __future__ import annotations

from repro.sim.stats import StatSet


class RpcDedup:
    """Sequence-numbered idempotent delivery state for one RPC endpoint."""

    def __init__(self, component: str, categories):
        self.component = component
        self.categories = frozenset(categories)
        self.stats = StatSet(f"rpc_dedup[{component}]")
        #: Next sequence number to assign, per requesting peer.
        self._next_seq: dict[str, int] = {}
        #: Highest sequence number already delivered, per peer. Transfers
        #: complete in simulated-time order per (peer, endpoint) pair, so a
        #: single high-water mark is exact -- no window bitmap needed.
        self._high_water: dict[str, int] = {}

    def next_seq(self, peer: str) -> int:
        seq = self._next_seq.get(peer, 0)
        self._next_seq[peer] = seq + 1
        return seq

    def admit(self, peer: str, seq: int) -> bool:
        """First delivery of ``seq`` from ``peer``? Duplicates are dropped
        (counted) so the handler body never re-executes."""
        if seq <= self._high_water.get(peer, -1):
            self.stats.incr("dup_rpcs_dropped")
            return False
        self._high_water[peer] = seq
        self.stats.incr("rpcs_delivered")
        return True

    @property
    def dup_rpcs_dropped(self) -> int:
        return self.stats.counters["dup_rpcs_dropped"]


class DeadlockWatchdog:
    """Distinguishes recoverable stalls from true deadlock at heap drain.

    ``recoverers`` are callables ``fn(blocked) -> bool``; returning True
    means "I scheduled work that will unblock someone -- keep running".
    Typical recoverers: the manager's dead-holder lease expiry, and the
    injector's re-arm of any fault-held operation whose retransmit timer
    was lost. The watchdog itself is the composition point registered on
    :attr:`Engine.deadlock_hooks`.
    """

    def __init__(self):
        self.recoverers: list = []
        self.stats = StatSet("watchdog")

    def add(self, recoverer) -> None:
        self.recoverers.append(recoverer)

    def __call__(self, blocked) -> bool:
        self.stats.incr("invocations")
        for recoverer in self.recoverers:
            if recoverer(blocked):
                self.stats.incr("recoveries")
                return True
        return False


def wait_reasons(blocked) -> dict:
    """``{process name: wait reason}`` for DeadlockError diagnosability."""
    reasons = {}
    for proc in blocked:
        event = getattr(proc, "blocked_on", None)
        if event is None:
            reason = "<not waiting on any event>"
        else:
            reason = getattr(event, "name", "") or repr(event)
        reasons[proc.name] = reason
    return reasons
