"""Post-run analysis: where did the time and the bytes go?

The paper's discussion attributes its results to manager contention, memory
server hot-spots, and false-sharing traffic; this module extracts those
quantities from a finished run so the attribution is measurable rather than
argued. Works on a :class:`~repro.runtime.samhita.SamhitaBackend` after
``run()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.results import RunResult
from repro.runtime.samhita import SamhitaBackend


@dataclass
class ResourceUsage:
    name: str
    busy_time: float
    utilization: float      # busy / sim time
    requests: int
    mean_queue_time: float  # per request


@dataclass
class UtilizationReport:
    """Condensed accounting of one Samhita run."""

    sim_time: float
    manager: ResourceUsage
    memory_servers: list[ResourceUsage]
    links: dict[str, float]                 # busy seconds per contended link
    traffic: dict[str, int]                 # bytes by category
    top_flows: list                         # heaviest (src, dst, bytes) flows
    cache_hit_ratio: float
    prefetch_hit_ratio: float
    compute_balance: float                  # min/max thread compute time
    sync_share: float                       # mean sync / mean total

    def format(self) -> str:
        lines = [f"simulated time: {self.sim_time * 1e3:.3f} ms", ""]
        lines.append("component utilization:")
        for usage in [self.manager, *self.memory_servers]:
            lines.append(
                f"  {usage.name:12s} busy={usage.busy_time * 1e3:8.3f} ms "
                f"({usage.utilization * 100:5.1f}%)  requests={usage.requests:6d} "
                f"mean-queue={usage.mean_queue_time * 1e6:7.2f} us")
        if self.links:
            lines.append("contended links (busy seconds):")
            for name, busy in sorted(self.links.items()):
                lines.append(f"  {name:40s} {busy * 1e3:8.3f} ms")
        lines.append("traffic by category (bytes):")
        for category, nbytes in sorted(self.traffic.items()):
            lines.append(f"  {category:16s} {nbytes:12d}")
        if self.top_flows:
            lines.append("heaviest flows (bytes):")
            for src, dst, nbytes in self.top_flows:
                lines.append(f"  {src:>8s} -> {dst:<8s} {nbytes:12d}")
        lines.append("")
        lines.append(f"software-cache hit ratio:   {self.cache_hit_ratio * 100:5.1f}%")
        lines.append(f"prefetch usefulness:        {self.prefetch_hit_ratio * 100:5.1f}%")
        lines.append(f"compute balance (min/max):  {self.compute_balance * 100:5.1f}%")
        lines.append(f"sync share of thread time:  {self.sync_share * 100:5.1f}%")
        return "\n".join(lines)


def _resource_usage(resource, sim_time: float) -> ResourceUsage:
    requests = resource.total_requests
    return ResourceUsage(
        name=resource.name,
        busy_time=resource.total_busy_time,
        utilization=(resource.total_busy_time / sim_time) if sim_time else 0.0,
        requests=requests,
        mean_queue_time=(resource.total_queue_time / requests) if requests else 0.0,
    )


def analyze(backend: SamhitaBackend, result: RunResult) -> UtilizationReport:
    """Build the utilization report for a finished Samhita run."""
    system = backend.system
    sim_time = result.elapsed

    manager = _resource_usage(system.manager.resource, sim_time)
    servers = [_resource_usage(s.resource, sim_time)
               for s in system.memory_servers]

    traffic = {key.split(".", 1)[1]: int(value)
               for key, value in system.fabric.stats.counters.items()
               if key.startswith("bytes.")}

    cache_stats = result.stats.get("caches", {})
    touches = cache_stats.get("page_touches", 0)
    installs = cache_stats.get("installs", 0)
    hit_ratio = (touches - installs) / touches if touches > installs else 0.0
    # The merged "prefetch" namespace carries the ready-made accuracy
    # whenever a prefetched page was installed.
    prefetch_ratio = result.stats.get("prefetch", {}).get(
        "prefetch_accuracy", 0.0)

    computes = [t.clock.compute for t in result.threads.values()]
    balance = (min(computes) / max(computes)
               if computes and max(computes) > 0 else 1.0)
    totals = [t.clock.total for t in result.threads.values()]
    syncs = [t.clock.sync for t in result.threads.values()]
    sync_share = (sum(syncs) / sum(totals)) if sum(totals) else 0.0

    return UtilizationReport(
        sim_time=sim_time,
        manager=manager,
        memory_servers=servers,
        links=system.fabric.link_utilization(),
        traffic=traffic,
        top_flows=[(src, dst, nbytes) for (src, dst), nbytes
                   in system.fabric.top_talkers(5)],
        cache_hit_ratio=max(0.0, min(1.0, hit_ratio)),
        prefetch_hit_ratio=prefetch_ratio,
        compute_balance=balance,
        sync_share=sync_share,
    )
