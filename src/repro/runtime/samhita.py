"""The Samhita execution backend: kernels over the DSM system."""

from __future__ import annotations

from repro.core.params import SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.errors import BackendError
from repro.hardware.cpu import ComputeCostModel
from repro.runtime.backend import BaseBackend
from repro.runtime.plan import COMPUTE, READ, upcoming_spans
from repro.sim.engine import AdvanceTo, Timeout


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

    @property
    def engine(self):
        return self.system.engine

    @property
    def config(self) -> SamhitaConfig:
        return self.system.config

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

    # -- ops ------------------------------------------------------------------
    def malloc(self, tid, size):
        return (yield from self.system.malloc(tid, size))

    def malloc_shared(self, tid, size):
        return (yield from self.system.malloc(tid, size, shared=True))

    def free(self, tid, addr):
        return (yield from self.system.free(tid, addr))

    def mem_read(self, tid, addr, nbytes):
        return (yield from self.system.mem_read(tid, addr, nbytes))

    def mem_write(self, tid, addr, nbytes, data):
        return (yield from self.system.mem_write(tid, addr, nbytes, data))

    # -- batched access plans ---------------------------------------------
    @property
    def plans_supported(self) -> bool:
        """Batching is sound under RegC: within a plan no remote action can
        change what this thread's *hits* observe (recalls serve owner data
        in place, and invalidation epochs only void non-resident fetches).
        IVY's eager write-invalidate can yank pages mid-window, so it keeps
        the per-access path; REPRO_NO_COALESCE restores it everywhere."""
        return (self.system.config.coherence == "regc"
                and self.system.engine.coalesce)

    def run_plan(self, tid, ops):
        """Generator: execute plan ops, costing cache hits in bulk.

        Returns ``(read_results, charges)`` where ``charges`` replays, in
        order, the exact per-op ``(detail_key, dt)`` values the per-access
        path would have charged to the thread clock. Hit runs accumulate
        their delays into ``target`` with the same sequential float
        rounding the per-op path produces (``t = fl(t + dt)`` per op) and
        advance the engine once via :class:`AdvanceTo`; any miss first
        drains the pending advance, then takes the ordinary fault path.
        """
        system = self.system
        engine = system.engine
        cache = system.cache_of(tid)
        cs = system.compute_server_of(tid)
        element_time = self._cost_models[tid].element_time
        span_resident = cache.span_resident
        write_resident = system.write_resident
        cache_read = cache.read
        # Plan-informed prefetch (adaptive data plane only): a miss mid-plan
        # reveals exactly what the plan touches next, so hand those spans to
        # the compute server for a batched look-ahead fetch.
        plan_prefetch = (cs.prefetch_spans
                         if system.config.batch_line_fetches else None)
        results = []
        charges = []
        target = engine.now
        pending = False
        for i, op in enumerate(ops):
            kind = op.kind
            if kind == COMPUTE:
                dt = element_time(op.elements, op.flops)
                charges.append(("cpu", dt))
                target = target + dt
                pending = True
                continue
            addr = op.addr
            nbytes = op.nbytes
            if nbytes and not span_resident(addr, nbytes):
                if pending:
                    yield AdvanceTo(target)
                    pending = False
                t0 = engine.now
                yield from cs.ensure_resident(
                    tid, addr, nbytes, speculate=plan_prefetch is None)
                if plan_prefetch is not None:
                    plan_prefetch(tid, upcoming_spans(ops, i + 1))
                if kind == READ:
                    results.append(cache_read(addr, nbytes))
                else:
                    data = op.data
                    if callable(data):
                        data = data(results)
                    stall = write_resident(tid, addr, nbytes, data)
                    if stall:
                        yield Timeout(stall)
                charges.append(("memory", engine.now - t0))
                target = engine.now
                continue
            if kind == READ:
                results.append(cache_read(addr, nbytes))
                charges.append(("memory", 0.0))
            else:
                data = op.data
                if callable(data):
                    data = data(results)
                stall = write_resident(tid, addr, nbytes, data)
                if stall:
                    # fl(fl(t + stall) - t), exactly what _timed measures.
                    new_target = target + stall
                    charges.append(("memory", new_target - target))
                    target = new_target
                    pending = True
                else:
                    charges.append(("memory", 0.0))
        if pending:
            yield AdvanceTo(target)
        return results, charges

    def compute_cost(self, tid, elements, flops_per_element):
        return self._cost_models[tid].element_time(elements, flops_per_element)

    def acquire_lock(self, tid, lock_id):
        return (yield from self.system.acquire_lock(tid, lock_id))

    def release_lock(self, tid, lock_id):
        return (yield from self.system.release_lock(tid, lock_id))

    def barrier_wait(self, tid, barrier_id):
        return (yield from self.system.barrier_wait(tid, barrier_id))

    def cond_wait(self, tid, cond_id, lock_id):
        return (yield from self.system.cond_wait(tid, cond_id, lock_id))

    def cond_signal(self, tid, cond_id, broadcast):
        return (yield from self.system.cond_signal(tid, cond_id, broadcast))

    def stats_report(self) -> dict:
        return self.system.stats_report()

    def checkpoints(self):
        """The system's checkpoint store (None at checkpoint_interval=0)."""
        return self.system.checkpoints

    def restore(self, ckpt) -> None:
        """Rehydrate this (fresh) backend from a checkpoint so a
        continuation program can replay the remaining rounds (see
        :mod:`repro.checkpoint`)."""
        self.system.restore_checkpoint(ckpt)

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
        for mgr in system.managers:
            mgr.cr_source = mgr.cr_gather = mgr.prune_hook = None
        # With a fault plan armed: the fabric's shadowing bound method, the
        # failure detector, and the recovery hooks the engine and the
        # injector's watchdog hold (bound methods of their own owners).
        system.fabric.detach_injector()
        if system.detector is not None:
            system.detector.system = None
        if system.injector is not None:
            system.injector.watchdog.recoverers.clear()
            system.injector.detector = None
        system.engine.deadlock_hooks.clear()
