"""Deterministic fault injection and recovery for the Samhita fabric.

The DSM protocol in :mod:`repro.core` was built over a perfect network;
this package gives it a fault model and a recovery story:

* :mod:`repro.faults.plan` -- :class:`FaultPlan` / :class:`RetryPolicy`,
  the seeded declarative fault schedules;
* :mod:`repro.faults.injector` -- :class:`FaultInjector`, the per-message
  verdict engine attached at the ``Fabric.transfer_inline`` boundary;
* :mod:`repro.faults.recovery` -- :class:`RpcDedup` (sequence-numbered
  idempotent RPC delivery) and :class:`DeadlockWatchdog`.

Enable by handing a plan to the config::

    from repro.faults import FaultPlan
    config = SamhitaConfig(faults=FaultPlan(seed=7, drop_rate=0.02))

With ``faults=None`` (the default) nothing here is even constructed and the
simulated trajectory is bit-identical to builds predating this package.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CHAOS_PROFILES,
    FaultPlan,
    RetryPolicy,
    drop_storm,
    jitter_storm,
    latency_storm,
    partition,
    permanent_crash,
    server_outage,
    slow_server,
)
from repro.faults.recovery import DeadlockWatchdog, RpcDedup, wait_reasons

__all__ = [
    "CHAOS_PROFILES",
    "DeadlockWatchdog",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "RpcDedup",
    "drop_storm",
    "jitter_storm",
    "latency_storm",
    "partition",
    "permanent_crash",
    "server_outage",
    "slow_server",
    "wait_reasons",
]
