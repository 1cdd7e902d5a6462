"""Tunable parameters of the Samhita runtime.

Everything the paper describes as a design choice (cache line size,
prefetching, eviction bias, multiple-writer protocol, fine-grain consistency
region updates, striping across memory servers) is a field here, so the
ablation benches can toggle each one independently.

The time constants below model user-level software costs of the original
implementation (signal-handler page faults, twin copies, diff scans); they
are small relative to interconnect costs, as in the real system. They are
fixed costs of the paper's C runtime, not design choices, so no caller
sets them; a sweep monkeypatches the constant where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.memory.cache import EvictionPolicy
from repro.memory.layout import MemoryLayout

#: Memory-server service charge per request (one slot on its resource).
MEMSERVER_SERVICE_TIME = 1.0e-6
#: Manager service charge per control request (one slot on its resource).
MANAGER_SERVICE_TIME = 1.5e-6
#: Signal-handler + mprotect cost charged per page fault event.
FAULT_HANDLER_TIME = 1.0e-6
#: Copy cost for creating one twin page.
TWIN_CREATE_TIME = 0.8e-6
#: Scanning one dirty page against its twin.
DIFF_SCAN_TIME = 0.4e-6
#: Applying received bytes (diffs / fine-grain updates), per byte.
APPLY_TIME_PER_BYTE = 0.2e-9
#: Dropping one cached page (mprotect + bookkeeping).
INVALIDATE_PAGE_TIME = 0.3e-6
#: Installing one fetched page into the local cache (copy + mmap).
INSTALL_PAGE_TIME = 0.8e-6


@dataclass(frozen=True)
class SamhitaConfig:
    """Configuration of one Samhita instance."""

    layout: MemoryLayout = field(default_factory=MemoryLayout)

    # -- software cache ------------------------------------------------
    #: Per-thread cache capacity in pages (default 1 GiB of 4 KiB pages --
    #: a coprocessor core's fair share of on-board memory; the eviction
    #: ablation shrinks this).
    cache_capacity_pages: int = 1 << 18
    eviction_policy: EvictionPolicy = EvictionPolicy.DIRTY_BIASED
    #: The paper's anticipatory paging (§II): every demand miss of at most
    #: ``rtbatch.PREFETCH_DEGREE`` lines also fetches the next line, riding
    #: the same round trip. False is demand paging only (the ablation).
    prefetch: bool = True

    # -- consistency ----------------------------------------------------
    #: Memory coherence protocol: "regc" (the paper's Regional Consistency)
    #: or "ivy" -- an eager write-invalidate protocol in the style of
    #: 1990s page-based DSMs, kept as the historical baseline RegC is
    #: designed to beat (every write to a shared page invalidates all other
    #: copies synchronously; no twins, no diffs, no consistency work at
    #: synchronization points).
    coherence: str = "regc"
    #: Twin/diff multiple-writer protocol; False falls back to whole-page
    #: write-back (single-writer style), for the ablation.
    multiple_writer: bool = True
    #: Fine-grained (store-log) updates inside consistency regions; False
    #: treats consistency-region stores like ordinary stores (page-grain).
    regc_fine_grain: bool = True
    #: §V future work -- threads co-located with the manager skip the
    #: network round-trip for synchronization operations.
    local_sync_optimization: bool = False

    # -- data plane ------------------------------------------------------
    #: Functional mode moves real bytes; timing mode tracks sizes only.
    functional: bool = True

    # -- server model -----------------------------------------------------
    n_memory_servers: int = 1

    # -- control plane ----------------------------------------------------
    #: Manager shards. 1 (the default) is the single-manager build (its
    #: trajectory is pinned by ``golden_metrics.json``); k > 1 spreads the
    #: control plane's messages over k components. The shards share one
    #: page directory and one allocator, which carves one address slice
    #: per shard: thread t allocates in slice t % k through shard t % k,
    #: a free goes to the shard of the address's slice, and
    #: lock/barrier/cond RPCs route to the owning shard by ID hash. Each
    #: shard is an addressable, probe-able component; with a fault model
    #: armed a permanently crashed shard fails over to its ring successor.
    manager_shards: int = 1
    #: Lock-ownership caching at compute servers: when a release finds no
    #: waiters, the manager leaves the grant cached at the releasing
    #: component, so repeat acquires of an uncontended lock skip the
    #: manager round trip entirely. A contending acquire revokes the
    #: cached grant (the cached component surrenders its stashed release
    #: records inline, or marks the grant for surrender at next release if
    #: it is held). Stashed records flush at barrier entry, preserving
    #: RegC's global-consistency semantics.
    lock_owner_cache: bool = False
    #: Combining tree barriers (a §V-adjacent extension): threads combine
    #: per compute node, node leaders combine at a per-cell combiner shard,
    #: and one aggregate message per cell reaches the barrier's root shard
    #: -- barrier fan-in drops from O(threads) to O(cells). A cell level
    #: with nothing to combine (a node alone in its cell; any node on one
    #: shard) is skipped, leaving one message per node: O(nodes).
    #: Only applies to full-party barriers; partial barriers stay flat.
    tree_barriers: bool = False

    # -- replication / availability (repro.resilience) ---------------------
    #: Copies of every home page, primary included. 1 (the default) is the
    #: single-copy build; k > 1 gives each page ``k - 1`` backup
    #: homes on the next servers of the ring, diffs ship to them through a
    #: write-ahead replication log, and a heartbeat failure detector
    #: promotes a backup when the primary permanently crashes.
    replication_factor: int = 1

    # -- fault model ------------------------------------------------------
    #: Seeded fault schedule, or None (the default) for a perfect network.
    #: With None the fault subsystem is never constructed and the simulated
    #: trajectory is bit-identical to builds predating it. On
    #: ``manager_shards > 1`` a plan also arms shard failover.
    faults: FaultPlan | None = None

    def __post_init__(self):
        if self.coherence not in ("regc", "ivy"):
            raise ReproError(f"unknown coherence protocol {self.coherence!r}")
        if self.cache_capacity_pages < self.layout.pages_per_line:
            raise ReproError("cache must hold at least one cache line")
        if self.n_memory_servers < 1:
            raise ReproError("need at least one memory server")
        if self.replication_factor < 1:
            raise ReproError("replication_factor must be >= 1")
        if self.replication_factor > self.n_memory_servers:
            raise ReproError(
                f"replication_factor={self.replication_factor} needs at "
                f"least that many memory servers "
                f"(n_memory_servers={self.n_memory_servers})")
        if self.manager_shards < 1:
            raise ReproError("manager_shards must be >= 1")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ReproError("faults must be a FaultPlan or None")

    @classmethod
    def sharded_control_plane(cls, shards: int = 4, **overrides) -> "SamhitaConfig":
        """The scaled control plane: ``shards`` manager shards plus the two
        RPC-avoidance optimizations they enable (lock-ownership caching and
        tree barriers). Keyword overrides apply on top."""
        base: dict = {"manager_shards": shards,
                      "lock_owner_cache": True,
                      "tree_barriers": True}
        base.update(overrides)
        return cls(**base)

    @classmethod
    def grayfail(cls, **overrides) -> "SamhitaConfig":
        """The two-server replicated deployment the ``fault_storm`` suite
        workload and the gray chaos tests run on. A slow server or a jitter
        storm changes timing only, and the plain retry loop survives both;
        the tail-tolerance knobs this preset once armed each lost to it on
        every fault profile (DESIGN.md S15). Keyword overrides apply on
        top."""
        base: dict = {"n_memory_servers": 2, "replication_factor": 2}
        base.update(overrides)
        return cls(**base)

    def with_(self, **changes) -> "SamhitaConfig":
        """A modified copy (sweeps and ablations)."""
        return replace(self, **changes)
