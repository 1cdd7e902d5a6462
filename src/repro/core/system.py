"""SamhitaSystem: a fully wired virtual-shared-memory machine.

Builds the architecture of Figure 1 on a given topology -- manager, memory
server(s), compute servers -- and exposes the thread-level operations the
runtime API calls: ``malloc``/``free``, ``mem_read``/``mem_write`` (through
the per-thread software cache, with RegC store classification), and the
synchronization operations that double as memory-consistency points.

Three canonical machines:

* :meth:`SamhitaSystem.cluster` -- the paper's testbed: nodes on QDR
  InfiniBand, one manager node, one (or more) memory-server nodes, threads
  packed 8-per-compute-node;
* :meth:`SamhitaSystem.hetero` -- the paper's target (Figure 1): manager and
  memory server on the host, threads on coprocessor cores across PCIe;
* :meth:`SamhitaSystem.single_node` -- everything co-located, for the §V
  local-synchronization ablation.
"""

from __future__ import annotations

import math

from repro.core.allocator import AllocationKind, SamhitaAllocator
from repro.core.compute_server import ComputeServer
from repro.core.consistency import QUIET_DIRECTIVE
from repro.core.control_plane import ControlPlane
from repro.core.manager import Manager
from repro.core.memory_server import MemoryServer
from repro.core.params import (
    APPLY_TIME_PER_BYTE,
    DIFF_SCAN_TIME,
    INVALIDATE_PAGE_TIME,
    TWIN_CREATE_TIME,
    SamhitaConfig,
)
from repro.faults.injector import FaultInjector
from repro.core.placement import PlacementPolicy, choose_component
from repro.core import rtbatch
from repro.core.rtbatch import RoundTripLedger
from repro.core.regions import RegionTracker
from repro.errors import (
    BackendError,
    CommunicationError,
    ConsistencyError,
    SynchronizationError,
)
from repro.hardware.specs import NodeSpec, PENRYN_NODE, XEON_PHI_KNC
from repro.hardware.topology import (
    Topology,
    cluster_topology,
    hetero_node_topology,
    smp_topology,
)
from repro.interconnect.routing import Fabric
from repro.interconnect.scl import SCL
from repro.memory.cache import SoftwareCache
from repro.memory.directory import PageDirectory
from repro.memory.storelog import StoreLog
from repro.sim.engine import DONE, Engine, Timeout
from repro.sim.stats import StatSet


#: The release record ``(diffs, payload_bytes, span_count, invalidate_pages)``
#: of a consistency region that stored nothing. One object shared by every
#: stash it lands in, hence tuples all the way down: consumers only read it.
NO_STORES = ((), 0, 0, ())


def _one_memory_server(config: SamhitaConfig, machine: str) -> SamhitaConfig:
    """``config``, checked for a machine with one memory server (the host)."""
    if config.n_memory_servers != 1:
        raise BackendError(
            f"the {machine} machine has one memory server; the config asks "
            f"for n_memory_servers={config.n_memory_servers}")
    return config


class SamhitaSystem:
    """One Samhita instance bound to a topology."""

    def __init__(
        self,
        topology: Topology,
        config: SamhitaConfig | None = None,
        memserver_components: list[str] | None = None,
        compute_components: list[str] | None = None,
        placement: PlacementPolicy = PlacementPolicy.PACKED,
        manager_components: list[str] | None = None,
    ):
        self.config = config or SamhitaConfig()
        self.topology = topology
        self.engine = Engine()
        self.fabric = Fabric(self.engine, topology)
        self.scl = SCL(self.fabric)
        n_shards = self.config.manager_shards
        # One directory and one allocator (one address slice per shard),
        # shared by every manager shard.
        self.directory = PageDirectory()
        self.allocator = SamhitaAllocator(self.config)
        self.stats = StatSet("system")
        #: Round-trip accounting: one record per modeled batched trip,
        #: surfaced as stats_report's ``round_trips`` namespace.
        self.rt_ledger = RoundTripLedger()

        compute = compute_components or [c.name for c in topology.compute_components()]
        if not compute:
            raise BackendError("topology has no compute components")
        if manager_components is None:
            manager_components = [compute[0]] * n_shards
        if len(manager_components) != n_shards:
            raise BackendError(
                f"config wants {n_shards} manager shards, "
                f"got components {manager_components}")
        mem_comps = memserver_components or [compute[0]]
        if len(mem_comps) != self.config.n_memory_servers:
            raise BackendError(
                f"config wants {self.config.n_memory_servers} memory servers, "
                f"got components {mem_comps}")

        self.managers = [
            Manager(self.engine, comp, self.config, self.allocator,
                    self.directory, self.scl)
            for comp in manager_components
        ]
        #: Shard 0, kept under the historical name for direct-manager tests
        #: and the shards=1 build (where it serves every control RPC).
        self.manager = self.managers[0]
        self.memory_servers = [
            MemoryServer(self.engine, comp, i, self.config, self.directory)
            for i, comp in enumerate(mem_comps)
        ]
        for server in self.memory_servers:
            server.bind(self)
        self.compute_servers = {
            comp: ComputeServer(self.engine, comp, self) for comp in compute
        }
        self._compute_order = list(compute)
        self.placement = placement
        #: Placement's inputs, read once and kept as threads are added
        #: (a compute server's thread list only grows).
        self._cores = {c: topology.component(c).cores for c in compute}
        self._load = dict.fromkeys(compute, 0)
        self.control = ControlPlane(self, self.managers)
        if self.config.lock_owner_cache:
            for mgr in self.managers:
                mgr.cache_registry = self.compute_servers.__getitem__

        # Fault injection: constructed ONLY when the config carries a plan,
        # so the fault-free build never even imports a fault object into the
        # hot path (attach_injector shadows transfer_inline per instance).
        self.injector: FaultInjector | None = None
        if self.config.faults is not None:
            self.injector = FaultInjector(self.config.faults)
            self.fabric.attach_injector(self.injector)

        # The fault-tolerance layer (repro.resilience), composed in only
        # where something can fail over: every hook into it is one
        # ``is None`` check on the paper's build.
        self.resilience = None
        config = self.config
        if config.replication_factor > 1 or (config.faults is not None
                                             and config.manager_shards > 1):
            from repro.resilience import Resilience
            self.resilience = Resilience(self)

        # Per-thread state.
        self._caches: dict[int, SoftwareCache] = {}
        self._regions: dict[int, RegionTracker] = {}
        self._storelogs: dict[int, StoreLog] = {}
        self._cr_pages: dict[int, set[int]] = {}
        self._thread_comp: dict[int, str] = {}
        #: tid -> its compute server (what the hot paths index).
        self._servers: dict[int, ComputeServer] = {}
        #: barrier id -> its arrival protocol (:meth:`_arrival_for`).
        self._arrivals: dict[int, object] = {}
        self._next_tid = 0

    # ------------------------------------------------------------------
    # canonical machines
    # ------------------------------------------------------------------
    @classmethod
    def cluster(cls, n_threads: int, config: SamhitaConfig | None = None,
                node: NodeSpec = PENRYN_NODE) -> "SamhitaSystem":
        """The paper's testbed: dedicated manager node + memory-server
        node(s) + enough compute nodes for ``n_threads``."""
        config = config or SamhitaConfig()
        n_compute = max(1, math.ceil(n_threads / node.cores))
        n_shards = config.manager_shards
        n_nodes = n_shards + config.n_memory_servers + n_compute
        topo = cluster_topology(n_nodes, node=node)
        names = [f"node{i}" for i in range(n_nodes)]
        first_mem = n_shards
        first_compute = n_shards + config.n_memory_servers
        return cls(
            topo, config,
            manager_components=names[:n_shards],
            memserver_components=names[first_mem:first_compute],
            compute_components=names[first_compute:],
        )

    @classmethod
    def hetero(cls, n_coprocessors: int = 1, config: SamhitaConfig | None = None,
               host: NodeSpec = PENRYN_NODE, coprocessor=XEON_PHI_KNC,
               bus=None,
               placement: PlacementPolicy = PlacementPolicy.PACKED) -> "SamhitaSystem":
        """Figure 1: host runs manager + memory server, threads run on the
        coprocessor(s) across the PCIe bus. Bus contention is the bus
        link's own ``contended`` flag."""
        config = _one_memory_server(config or SamhitaConfig(), "hetero")
        topo = hetero_node_topology(n_coprocessors, host=host,
                                    coprocessor=coprocessor, bus=bus)
        mics = [f"mic{i}" for i in range(n_coprocessors)]
        return cls(topo, config,
                   manager_components=["host"] * config.manager_shards,
                   memserver_components=["host"], compute_components=mics,
                   placement=placement)

    @classmethod
    def single_node(cls, config: SamhitaConfig | None = None,
                    node: NodeSpec = PENRYN_NODE) -> "SamhitaSystem":
        """Everything co-located on one node (the §V ablation machine)."""
        config = _one_memory_server(config or SamhitaConfig(), "single_node")
        topo = smp_topology(node)
        return cls(topo, config,
                   manager_components=["host"] * config.manager_shards,
                   memserver_components=["host"], compute_components=["host"])

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------
    def add_thread(self, component: str | None = None) -> int:
        """Create a compute thread (the manager's thread placement applies
        the configured policy, one thread per core). Returns the thread id."""
        if component is None:
            component = choose_component(self.placement, self._compute_order,
                                         self._cores, self._load)
        elif component not in self.compute_servers:
            raise BackendError(f"{component!r} is not a compute component")
        self._load[component] += 1
        tid = self._next_tid
        self._next_tid += 1
        self._thread_comp[tid] = component
        self._caches[tid] = SoftwareCache(
            self.config.layout, self.config.cache_capacity_pages,
            functional=self.config.functional,
            policy=self.config.eviction_policy,
            # IVY has no twins: exclusive pages write back whole.
            use_twins=(self.config.multiple_writer
                       and self.config.coherence == "regc"),
            name=f"cache.t{tid}")
        self._regions[tid] = RegionTracker(f"regions.t{tid}")
        self._storelogs[tid] = StoreLog(self.config.layout)
        self._cr_pages[tid] = set()
        cs = self._servers[tid] = self.compute_servers[component]
        cs.register_thread(tid, self._caches[tid])
        self.control.register_thread(tid)
        self._arrivals.clear()  # "full party" counts threads
        return tid

    # -- lookups used across components ---------------------------------
    def cache_of(self, tid: int) -> SoftwareCache:
        return self._caches[tid]

    def component_of(self, tid: int) -> str:
        return self._thread_comp[tid]

    def compute_server_of(self, tid: int) -> ComputeServer:
        return self._servers[tid]

    def server_of_page(self, page: int) -> MemoryServer:
        return self.memory_servers[
            self.directory.resolve_home(self.allocator.home_of_page(page))]

    def region_tracker_of(self, tid: int) -> RegionTracker:
        return self._regions[tid]

    @property
    def thread_ids(self) -> list[int]:
        return sorted(self._thread_comp)

    # ------------------------------------------------------------------
    # allocation (three strategies)
    # ------------------------------------------------------------------
    def malloc(self, tid: int, size: int, shared: bool = False):
        """Generator: allocate from the global address space.

        ``shared=True`` forces a page-aligned shared-zone allocation
        regardless of size -- used for program globals so they never share a
        page with a thread's arena data.
        """
        comp = self.component_of(tid)
        if shared:
            addr = yield from self.control.alloc_rpc(tid, comp, size,
                                                     force_shared=True)
            return addr
        if self.allocator.classify(size) is AllocationKind.ARENA:
            addr = self.allocator.arena_alloc(tid, size)
            if addr is None:
                # Arena refill is the only communication small allocs pay.
                yield from self.control.alloc_rpc(tid, comp, size)
                addr = self.allocator.arena_alloc(tid, size)
                assert addr is not None, "arena refill failed to satisfy"
            return addr
        addr = yield from self.control.alloc_rpc(tid, comp, size)
        return addr

    def free(self, tid: int, addr: int):
        """Generator: release an allocation (validation + stats only --
        the bump allocator never recycles addresses)."""
        alloc = self.allocator.allocation_at(addr)
        if alloc is not None and alloc.kind is AllocationKind.ARENA:
            self.allocator.free(addr)
            return
        yield from self.control.free_rpc(tid, self.component_of(tid), addr)

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------
    def mem_read(self, tid: int, addr: int, nbytes: int):
        """Generator: read bytes (faulting lines in as needed)."""
        yield from self._servers[tid].ensure_resident(tid, addr, nbytes)
        return self._caches[tid].read(addr, nbytes)

    def mem_write(self, tid: int, addr: int, nbytes: int, data):
        """Generator: write bytes, classified by the RegC region tracker
        (RegC mode) or made globally coherent first (IVY mode)."""
        if self.config.coherence == "ivy":
            yield from self._ivy_write(tid, addr, nbytes, data)
            return
        yield from self._servers[tid].ensure_resident(tid, addr, nbytes)
        stall = self.write_resident(tid, addr, nbytes, data)
        if stall:
            yield Timeout(stall)

    def write_resident(self, tid: int, addr: int, nbytes: int, data) -> float:
        """RegC store into already-resident pages (plain function).

        Returns the stall the caller must charge and advance (twin-creation
        time; 0.0 for instrumented consistency-region stores). Shared by
        :meth:`mem_write` and the batched plan executor so classification,
        store-log capture and CR-page bookkeeping cannot diverge.
        """
        cache = self._caches[tid]
        in_cr = self._regions[tid].classify_store(nbytes)
        if in_cr and self.config.regc_fine_grain:
            # Instrumented store: logged for fine-grain release propagation.
            self._storelogs[tid].record(addr, nbytes, data)
            cache.write(addr, nbytes, data, ordinary=False)
            return 0.0
        twins = cache.write(addr, nbytes, data, ordinary=True)
        if in_cr:
            # Page-grain ablation: remember which pages this CR touched.
            self._cr_pages[tid].update(cache.layout.pages_spanning(addr, nbytes))
        if twins:
            return twins * TWIN_CREATE_TIME
        return 0.0

    def _ivy_write(self, tid: int, addr: int, nbytes: int, data):
        """Generator: eager write-invalidate store.

        The store proceeds page by page (page-atomic, like a real write
        fault; cross-page atomicity is not a coherence property). Each page
        is either already held exclusively -- then the slice is written
        immediately -- or a write-fault upgrade is taken: the server grant
        includes the fresh page contents, and install + store happen
        synchronously on return, so no concurrent action can slip between
        grant and write.
        """
        self._regions[tid].classify_store(nbytes)  # stats only under IVY
        cache = self._caches[tid]
        comp = self.component_of(tid)
        layout = self.config.layout
        cs = self.compute_server_of(tid)
        consumed = 0
        for page in layout.pages_spanning(addr, nbytes):
            start = max(addr, layout.page_addr(page))
            end = min(addr + nbytes, layout.page_addr(page + 1))
            chunk = end - start
            slice_ = data[consumed:consumed + chunk] if data is not None else None
            consumed += chunk
            for _attempt in range(256):
                if self.directory.owner_of(page) == tid and cache.resident(page):
                    cache.write(start, chunk, slice_, ordinary=True)
                    break
                # Pre-make room so the post-grant install cannot block.
                if not cache.resident(page) and cache.free_pages == 0:
                    yield from rtbatch.evict_batched(cs, tid, 1, {page})
                server = self.server_of_page(page)
                try:
                    t = self.scl.send(comp, server.component,
                                      category="upgrade_req")
                    if t is not None:
                        yield from t
                    fresh = yield from server.serve_upgrade(tid, comp, page)
                except CommunicationError as err:
                    # Home unreachable: recover per the error's
                    # classification (failover wait at this call site) and
                    # retry the whole exchange against whichever server
                    # then resolves.
                    yield from rtbatch.recover(cs, server, err)
                    continue
                # Synchronous from here: install + store, no yields.
                if cache.resident(page) or cache.free_pages > 0:
                    cache.install(page, fresh)
                    cache.write(start, chunk, slice_, ordinary=True)
                    break
                # The cache filled meanwhile: retry.
            else:
                raise ConsistencyError(
                    f"thread {tid} starved acquiring exclusive access to page {page}")

    # ------------------------------------------------------------------
    # synchronization (each operation is also a consistency operation)
    # ------------------------------------------------------------------
    def create_lock(self) -> int:
        return self.control.create_lock()

    def create_barrier(self, parties: int) -> int:
        return self.control.create_barrier(parties)

    def create_cond(self) -> int:
        return self.control.create_cond()

    def acquire_lock(self, tid: int, lock_id: int):
        """Acquire + apply the pending consistency updates. Plain function;
        ``yield from`` what it returns: :data:`DONE` on an owner-cache hit
        (this thread released the lock last and nobody contended since, so
        there is nothing to pull, no round trip and no generator), else the
        generator of the manager round trip."""
        comp = self._thread_comp[tid]
        if (self.config.lock_owner_cache
                and self.compute_servers[comp].lock_cache_try_acquire(
                    tid, lock_id)):
            self._regions[tid].enter()
            return DONE
        return self._acquire_rpc(tid, comp, lock_id)

    def _acquire_rpc(self, tid: int, comp: str, lock_id: int):
        """Generator: the grant round trip, then the updates it carried."""
        diffs, payload, _spans, invalidate = yield from self.control.acquire_lock(
            tid, comp, lock_id)
        cache = self._caches[tid]
        if diffs:
            applied = cache.apply_fine_grain(diffs)
            if applied:
                yield Timeout(applied * APPLY_TIME_PER_BYTE)
        if invalidate:
            # Page-grain ablation: drop stale copies of CR pages. Passing
            # non-resident pages too advances their invalidation counters,
            # voiding in-flight fetches of pre-release data.
            targets = [p for p in invalidate if not cache.is_dirty(p)]
            dropped = cache.invalidate(targets)
            if dropped:
                yield Timeout(dropped * INVALIDATE_PAGE_TIME)
        self._regions[tid].enter()

    def release_lock(self, tid: int, lock_id: int):
        """Write the consistency-region updates through to their homes,
        then hand the lock back. Plain function, like :meth:`acquire_lock`:
        a region that stored nothing has nothing to write through, and when
        the owner cache keeps its release local the whole is :data:`DONE`."""
        self._regions[tid].leave()
        comp = self._thread_comp[tid]
        if (self._storelogs[tid].entries if self.config.regc_fine_grain
                else self._cr_pages[tid]):
            return self._write_through(tid, comp, lock_id)
        return self._hand_back(tid, comp, lock_id, NO_STORES)

    def _write_through(self, tid: int, comp: str, lock_id: int):
        """Generator: ship the region's stores to their homes, then hand
        the lock back with the record of what was shipped."""
        if self.config.regc_fine_grain:
            log = self._storelogs[tid]
            diffs = log.to_page_diffs()
            payload, spans = log.wire_bytes, len(log.entries)
            log.clear()
            yield from rtbatch.flush_diffs_batched(
                self.compute_servers[comp], diffs, "fine_grain", 0.0)
            record = (diffs, payload, spans, ())
        else:
            cache = self._caches[tid]
            pages = sorted(self._cr_pages[tid])
            self._cr_pages[tid].clear()
            diffs = []
            for page in pages:
                diff = cache.take_diff(page)
                if diff is not None and not diff.empty:
                    diffs.append(diff)
            yield from rtbatch.flush_diffs_batched(
                self.compute_servers[comp], diffs, "cr_page", 0.0)
            record = ([], 0, 0, tuple(pages))
        yield from self._hand_back(tid, comp, lock_id, record)

    def _hand_back(self, tid: int, comp: str, lock_id: int, record):
        """The release proper, once the stores are home: ``DONE`` when the
        owner cache stashes ``record`` locally, else the release RPC."""
        stash: tuple | list = ()
        if self.config.lock_owner_cache:
            verdict, surrendered = self.compute_servers[comp].lock_cache_release(
                tid, lock_id, record)
            if verdict == "local":
                # Cached grant, nobody contending: the release record stays
                # stashed at the compute server; no manager round trip.
                return DONE
            if verdict == "rpc":
                # Revoked while held: the release RPC carries the stash.
                stash = surrendered
        return self._release_rpc(tid, comp, lock_id, record, stash)

    def _release_rpc(self, tid: int, comp: str, lock_id: int, record, stash):
        """Generator: the release round trip to the lock's shard."""
        cacheable = yield from self.control.release_lock(
            tid, comp, lock_id, record[0], record[1], record[2],
            invalidate_pages=record[3], stash=stash)
        if cacheable:
            self.compute_servers[comp].lock_cache_install(tid, lock_id)

    def barrier_wait(self, tid: int, barrier_id: int):
        """Generator: the RegC global consistency point.

        Phase 1: submit write notices, receive directives.
        Phase 2: flush multi-writer diffs to their homes; wait for everyone's
        flushes. Phase 3: invalidate copies written by other threads.
        """
        cache = self._caches[tid]
        comp = self._thread_comp[tid]
        if self.config.coherence == "ivy":
            # Coherence is maintained eagerly per write: a barrier is a pure
            # rendezvous with no memory-consistency work.
            cache.epoch_written.clear()
            notices: list[int] = []
        else:
            notices = cache.take_epoch_notices()
        if self.config.lock_owner_cache:
            # A barrier is a global consistency point: stashed (locally
            # cached) release records must reach their lock's shard before
            # the round's cross-lock CR gather. Grants stay cached. The
            # drain and the log absorption are one atomic instant (a
            # concurrent revoke must never observe drained-but-unlogged
            # records); the message cost is charged afterwards.
            cs = self.compute_servers[comp]
            drained = cs.lock_cache_take_stashes(tid)
            for lock_id, stash in drained:
                self.control.absorb_lock_stash(tid, lock_id, stash)
            for lock_id, stash in drained:
                yield from self.control.flush_lock_stash(tid, comp, lock_id,
                                                         stash)
        arrive = (self._arrivals.get(barrier_id)
                  or self._arrival_for(barrier_id))
        state, directives = yield from arrive(tid, comp, barrier_id, notices)
        directive = directives[tid]
        invalidate, flush, cr_diffs, cr_invalidate = directive
        if flush:
            yield Timeout(len(flush) * DIFF_SCAN_TIME)
            # A page evicted mid-epoch is skipped: its diff already
            # reached home.
            diffs = [d for d in cache.take_diffs(flush) if d.n_spans]
            # The scan was charged above, per page the directive named.
            yield from rtbatch.flush_diffs_batched(
                self.compute_servers[comp], diffs, "barrier_diff", 0.0)
            yield from self.control.barrier_flush_done(tid, comp, barrier_id,
                                                       state)
        yield state.flush_gate
        if directive is QUIET_DIRECTIVE:
            return  # nothing to apply or drop
        # Consistency-region updates become globally visible here.
        if cr_diffs:
            applied = cache.apply_fine_grain(cr_diffs)
            if applied:
                yield Timeout(applied * APPLY_TIME_PER_BYTE)
        # Locally-dirty pages are skipped (lazily-held diffs the directory
        # still credits to this thread). The directive is resolved against
        # the pages this cache holds; it is never built as a page list.
        dropped = cache.invalidate(invalidate, skip_dirty=True)
        if cr_invalidate:
            extra = {p for p in cr_invalidate if not cache.is_dirty(p)}
            extra -= invalidate.intersection(extra)  # the directive's, done
            if extra:
                dropped += cache.invalidate(extra)
        if dropped:
            yield Timeout(dropped * INVALIDATE_PAGE_TIME)

    def _arrival_for(self, barrier_id: int):
        """The arrival protocol of one barrier, resolved once per barrier
        id: combining needs a full party (every spawned thread
        participates), anything else arrives flat."""
        arrive = self.control.barrier_arrive
        if (self.config.tree_barriers
                and self.control.barrier_parties(barrier_id)
                == len(self._thread_comp)):
            arrive = self.control.tree_arrive
        self._arrivals[barrier_id] = arrive
        return arrive

    def cond_wait(self, tid: int, cond_id: int, lock_id: int):
        """Generator: POSIX-style wait (caller must hold the lock)."""
        comp = self.component_of(tid)
        held = self.control.holds_lock(tid, lock_id)
        if not held and self.config.lock_owner_cache:
            held = self.compute_servers[comp].lock_cache_holds(tid, lock_id)
        if not held:
            raise SynchronizationError(
                f"thread {tid} called cond_wait without holding lock {lock_id}")
        gate = yield from self.control.cond_register(tid, comp, cond_id)
        yield from self.release_lock(tid, lock_id)
        yield gate
        yield from self.acquire_lock(tid, lock_id)

    def cond_signal(self, tid: int, cond_id: int, broadcast: bool = False):
        """Generator: wake one or all waiters."""
        comp = self.component_of(tid)
        woken = yield from self.control.cond_signal(tid, comp, cond_id,
                                                    broadcast=broadcast)
        return woken

    # ------------------------------------------------------------------
    # execution & reporting
    # ------------------------------------------------------------------
    def process(self, gen, name: str = "thread", daemon: bool = False):
        return self.engine.process(gen, name=name, daemon=daemon)

    def run(self, until: float = math.inf) -> float:
        return self.engine.run(until=until)

    def stats_report(self) -> dict:
        """Merged counters from every component (diagnostics)."""
        merged_mgr = StatSet("managers")
        for mgr in self.managers:
            merged_mgr.merge(mgr.stats)
        report = {
            "fabric": self.fabric.stats.snapshot(),
            "scl": self.scl.stats.snapshot(),
            "manager": merged_mgr.snapshot(),
            "allocator": self.allocator.stats.snapshot(),
        }
        # Per-shard RPC load (one entry even at shards=1, so tooling can
        # always read the same block).
        report["manager_rpcs_by_shard"] = self.control.rpcs_by_shard()
        if self.config.manager_shards > 1:
            report["control_plane"] = self.control.stats.snapshot()
        merged_server = StatSet("memservers")
        for server in self.memory_servers:
            merged_server.merge(server.stats)
            merged_server.merge(server.backing.stats)
        report["memory_servers"] = merged_server.snapshot()
        merged_cache = StatSet("caches")
        for cache in self._caches.values():
            merged_cache.merge(cache.stats)
        report["caches"] = merged_cache.snapshot()
        merged_cs = StatSet("compute_servers")
        for cs in self.compute_servers.values():
            merged_cs.merge(cs.stats)
        report["compute_servers"] = merged_cs.snapshot()
        # One coherent namespace for the whole prefetch counter family --
        # the cache side (installs/hits/evicted) and the compute-server
        # side (issues/waits/predictions/throttle flips) land in separate
        # StatSets above, which made per-family analysis error-prone.
        prefetch = {k: v for src in (report["caches"], report["compute_servers"])
                    for k, v in src.items() if "prefetch" in k}
        installs = prefetch.get("prefetch_installs", 0)
        if installs:
            prefetch["prefetch_accuracy"] = (
                prefetch.get("prefetch_hits", 0) / installs)
        report["prefetch"] = prefetch
        # The round-trip ledger: per-home trip counts by kind plus the
        # lines-per-trip histogram.
        trips = self.rt_ledger.snapshot()
        recall_trips = report["memory_servers"].get("recall_trips")
        if recall_trips:
            trips["recall_trips"] = recall_trips
        report["round_trips"] = trips
        if self.config.lock_owner_cache:
            # One namespace for the ownership-cache protocol: hits and local
            # releases at the compute servers, revocations and barrier
            # flushes at the manager shards. Absent when the knob is off, so
            # default reports stay byte-identical.
            lock_cache = {k: v for k, v in report["compute_servers"].items()
                          if k.startswith("lock_cache")}
            revokes = report["manager"].get("lock_cache_revokes", 0)
            if revokes:
                lock_cache["lock_cache_revokes"] = revokes
            report["lock_cache"] = lock_cache
        if self.injector is not None:
            report["faults"] = self.injector.stats.snapshot()
        if self.resilience is not None:
            self.resilience.report(report)
        return report
