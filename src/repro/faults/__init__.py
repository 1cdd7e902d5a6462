"""Deterministic fault injection for the Samhita fabric.

The DSM protocol in :mod:`repro.core` was built over a perfect network;
this package gives it a fault model:

* :mod:`repro.faults.plan` -- :class:`FaultPlan` / :class:`RetryPolicy`,
  the seeded declarative fault schedules;
* :mod:`repro.faults.injector` -- :class:`FaultInjector`, the per-message
  verdict engine attached at the ``Fabric.transfer_inline`` boundary.

Recovery is the fabric's retransmit loop plus the core's failure detector
and failover of memory servers and manager shards. A duplicate delivery
costs wire time and a retransmit; the receiver's handler runs once because
one copy is delivered, so no endpoint keeps sequence state. Nothing
recovers a wedged run: a drained event queue with a thread still blocked
raises :class:`~repro.errors.DeadlockError`.

Enable by handing a plan to the config::

    from repro.faults import FaultPlan
    config = SamhitaConfig(faults=FaultPlan(seed=7, drop_rate=0.02))

With ``faults=None`` (the default) nothing here is even constructed and the
simulated trajectory is bit-identical to builds predating this package.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    RetryPolicy,
    drop_storm,
    jitter_storm,
    latency_storm,
    permanent_crash,
    server_outage,
    slow_server,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "drop_storm",
    "jitter_storm",
    "latency_storm",
    "permanent_crash",
    "server_outage",
    "slow_server",
]
