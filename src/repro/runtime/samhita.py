"""The Samhita execution backend: kernels over the DSM system."""

from __future__ import annotations

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.errors import BackendError
from repro.hardware.cpu import ComputeCostModel
from repro.runtime.backend import BaseBackend
from repro.runtime.plan import COMPUTE, READ
from repro.sim.engine import AdvanceTo, Timeout


#: A stretch of plan operations that all hit is applied as column operations
#: only when it covers at least ``MIN_RUN`` operations. Measured on the
#: Figure 2 row sweep (read, write, compute per 2 KB row; one thread, every
#: page resident): a hit costs ~2.1 us through the per-op loop, a bulk run
#: ~23 us plus ~0.02 us per operation, so the two break even near 11
#: operations; 24 leaves the bulk path a 2x margin, which also pays for the
#: probes that come back short.
MIN_RUN = 24
#: The executor asks where the hits end only after this many operations in a
#: row have hit. In a sweep that is still faulting, each row's read misses
#: and its write and compute hit, so at <= 2 the probe fires inside every
#: such sweep: 2,250 of 2,890 probes per ``strided_share`` pass come back
#: short of ``MIN_RUN``; at 3 and 4 it is 17 of 657 and 10 of 650 (wall
#: 0.73 s at 1, 0.65 s at 4, 0.75 s at 8: waiting longer only runs more
#: hits one by one).
HIT_STREAK = 4


class SamhitaBackend(BaseBackend):
    """Runs kernels on a :class:`SamhitaSystem`.

    ``machine`` selects the canonical topology:

    * ``"cluster"`` (default) -- the paper's testbed;
    * ``"hetero"`` -- host + coprocessor over PCIe (Figure 1);
    * ``"single_node"`` -- everything co-located (§V ablation);

    or pass a pre-built ``system`` for custom topologies.
    """

    name = "samhita"

    def __init__(self, n_threads: int, config: SamhitaConfig | None = None,
                 machine: str = "cluster", system: SamhitaSystem | None = None,
                 trace: bool = False, **machine_kwargs):
        config = config or SamhitaConfig()
        if system is None:
            if machine == "cluster":
                system = SamhitaSystem.cluster(n_threads, config=config,
                                               **machine_kwargs)
            elif machine == "hetero":
                system = SamhitaSystem.hetero(config=config, **machine_kwargs)
            elif machine == "single_node":
                system = SamhitaSystem.single_node(config=config, **machine_kwargs)
            else:
                raise BackendError(f"unknown machine {machine!r}")
        self.system = system
        super().__init__(n_threads, functional=system.config.functional,
                         trace=trace)
        self._cost_models: dict[int, ComputeCostModel] = {}
        #: Batching is sound under RegC: within a plan no remote action can
        #: change what this thread's *hits* observe (recalls serve owner
        #: data in place, and invalidation epochs only void non-resident
        #: fetches). IVY's eager write-invalidate can yank pages
        #: mid-window, so it keeps the per-access path.
        self.plans_supported = system.config.coherence == "regc"

    @property
    def engine(self):
        return self.system.engine

    # -- object creation ---------------------------------------------------
    def _create_lock_id(self) -> int:
        return self.system.create_lock()

    def _create_barrier_id(self, parties: int) -> int:
        return self.system.create_barrier(parties)

    def _create_cond_id(self) -> int:
        return self.system.create_cond()

    def _register_thread(self) -> int:
        tid = self.system.add_thread()
        cpu = self.system.topology.component(self.system.component_of(tid)).cpu
        self._cost_models[tid] = ComputeCostModel(cpu)
        return tid

    # -- the op table is the system's own methods ------------------------
    @property
    def ops(self) -> SamhitaSystem:
        return self.system

    def cost_model_of(self, tid: int) -> ComputeCostModel:
        return self._cost_models[tid]

    # -- batched access plans ---------------------------------------------
    def run_plan(self, tid, plan, clock):
        """Generator: execute a plan, costing cache hits in bulk; returns
        the read results.

        ``clock`` (the thread's) is charged in place, operation by
        operation in order, with the exact ``(detail_key, dt)`` values the
        per-access path would charge. Hits accumulate their delays into
        ``target`` with the same sequential float rounding the per-op path
        produces (``t = fl(t + dt)`` per op) and advance the engine once
        via :class:`AdvanceTo`; any miss first drains the pending advance,
        then takes the ordinary fault path.

        Two shapes of the same semantics, chosen from what is observable
        here. The per-op loop below runs everything that can miss, carries
        bytes or is logged: functional mode, consistency regions, short
        plans. In timing mode outside a consistency region a hit touches
        no protocol state, so once ``HIT_STREAK`` operations in a row have
        hit, the executor asks the cache once which of the plan's pages
        are missing and, if that leaves at least ``MIN_RUN`` operations
        before the next miss, applies them all as column operations
        (``SoftwareCache.apply_hit_run``, DESIGN.md S17) -- nothing can
        change residency in between, because nothing yields.
        """
        system = self.system
        engine = system.engine
        cache = system._caches[tid]
        cs = system._servers[tid]
        cost_model = self._cost_models[tid]
        element_time = cost_model.element_time
        span_resident = cache.span_resident
        write_resident = system.write_resident
        cache_read = cache.read
        charge = clock.charge
        ops = plan.ops
        n = len(ops) // 6
        regions = system._regions[tid]
        # The operation at which to ask for a hit run: HIT_STREAK past the
        # plan's start and past every miss; never where runs cannot happen.
        hit_streak = (HIT_STREAK if n >= MIN_RUN and not self.functional
                      and not regions.in_consistency_region else n)
        probe_at = hit_streak
        results = []
        target = engine.now
        pending = False
        i = 0
        while i < n:
            if i >= probe_at and n - i >= MIN_RUN:
                columns = plan.hit_columns(cache.layout.page_bytes, cost_model)
                stop = columns.run_end(i, cache.missing_among(columns.pages))
                # Operation ``stop`` misses or is a cut; if it turns out to
                # hit, the streak it ends is still unbroken.
                probe_at = stop + 1
                if stop - i >= MIN_RUN:
                    effects = columns.cache_effects(i, stop)
                    cache.apply_hit_run(*effects)
                    reads, _, writes, write_bytes = effects[4:]
                    regions.ordinary_stores(writes, write_bytes)
                    results.extend([None] * reads)
                    dts = columns.compute_dts(i, stop)
                    target = clock.charge_hit_run(target, dts,
                                                  memory=reads + writes > 0)
                    if dts.size:
                        pending = True
                    i = stop
                    continue
            j = 6 * i
            kind, addr, nbytes, data, elements, flops = ops[j:j + 6]
            if kind == COMPUTE:
                dt = element_time(elements, flops)
                charge("compute", dt, "cpu")
                target = target + dt
                pending = True
                i += 1
                continue
            if nbytes and not span_resident(addr, nbytes):
                if pending:
                    yield AdvanceTo(target)
                    pending = False
                t0 = engine.now
                yield from cs.ensure_resident(tid, addr, nbytes)
                if kind == READ:
                    results.append(cache_read(addr, nbytes))
                else:
                    if callable(data):
                        data = data(results)
                    stall = write_resident(tid, addr, nbytes, data)
                    if stall:
                        yield Timeout(stall)
                dt = engine.now - t0
                target = engine.now
                probe_at = i + 1 + hit_streak
            elif kind == READ:
                results.append(cache_read(addr, nbytes))
                dt = 0.0
            else:
                if callable(data):
                    data = data(results)
                dt = write_resident(tid, addr, nbytes, data)
                if dt:
                    # fl(fl(t + stall) - t): what the per-access path charges.
                    new_target = target + dt
                    dt = new_target - target
                    target = new_target
                    pending = True
            charge("compute", dt, "memory")
            i += 1
        if pending:
            yield AdvanceTo(target)
        return results

    def stats_report(self) -> dict:
        return self.system.stats_report()

    def dispose(self) -> None:
        # The component->system back-edges are the remaining cycle anchors
        # on the Samhita side: compute servers, memory-server bind(), the
        # control plane, and the control plane's hooks on its shards.
        super().dispose()
        system = self.system
        for server in system.memory_servers:
            server._system = None
        for cs in system.compute_servers.values():
            cs.system = None
        system.control.system = None
        system._arrivals.clear()  # bound methods of the system and its plane
        for mgr in system.managers:
            mgr.cr_source = mgr.cr_gather = mgr.prune_hook = None
        # With a fault plan armed: the fabric's shadowing bound method; with
        # any trigger of repro.resilience, that layer.
        system.fabric.detach_injector()
        if system.resilience is not None:
            system.resilience.detach()
