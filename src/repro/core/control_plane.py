"""The control plane: ``config.manager_shards`` manager shards.

The paper has ONE manager own allocation, the page directory and every
synchronization object (§II), so all control traffic serializes through a
single service queue -- the classic DSM hotspot (DiSquawk distributes
exactly this state to reach 512 cores). Here that manager is ``n``
cooperating :class:`~repro.core.manager.Manager` instances; a single
manager is the control plane of one shard, built and routed the same way.

* **One set of tables, split messages** -- every shard shares the one
  :class:`~repro.core.allocator.SamhitaAllocator` and the one
  :class:`~repro.memory.directory.PageDirectory`. An allocation is served
  by its thread's shard (``tid % n``) and carved from that shard's address
  slice; a free is served by the shard of the address's slice
  (:func:`~repro.core.allocator.shard_of_page`). Page homes name memory
  servers, not shards, so a shard failover moves no page data at all.

* **ID-hash routing** -- the control plane owns the one id counter for
  locks, barriers and condition variables; object ``i`` lives on shard
  ``i % n``. Routing is pure arithmetic, no lookup traffic.

* **Shard failover** -- each shard is an addressable, probe-able component.
  When the failure detector declares one dead, its synchronization tables
  merge into the ring successor (IDs are globally unique, so the merge is
  collision-free) and the live-shard table points every index the dead
  shard served at the successor. In-flight requests that exhausted their
  retries against the corpse wait out the detection window
  (:meth:`ControlPlane.await_shard_failover`) and re-issue.

* **Tree barriers** (``config.tree_barriers``) -- flat barriers cost
  O(threads) messages into one shard. The tree path combines arrivals per
  compute node (level 0), per *cell* -- the group of nodes assigned to one
  combiner shard (level 1) -- and finally sends ONE aggregate message per
  cell to the barrier's root shard, whose reply fans back down the same
  tree. Fan-in at any single component drops from O(threads) to O(cells).
  A cell level with nothing to combine is skipped: the leader of a node
  that is alone in its cell, and every node leader on a single shard
  (where the combiner would be the root itself), arrives at the root.

The cross-shard consistency gather, with the lock-log source and pruner
that go with it, is wired only at ``n > 1``: one shard's root already sees
every lock log, and the gather is simulated cost.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.core import protocol
from repro.core.allocator import shard_of_page
from repro.core.consistency import group_reply
from repro.core.manager import Manager
from repro.core.params import MANAGER_SERVICE_TIME
from repro.errors import (
    ReplicationError,
    RetryExhaustedError,
    SynchronizationError,
)
from repro.sim.engine import DONE
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import SamhitaSystem


class _Cell:
    """One tree cell's combiner for one round: the node leaders' arrivals,
    the leaders its last one answers, and the record of the cell's last
    closed round."""

    __slots__ = ("name", "arrivals", "waiting", "answered")

    def __init__(self, name: str):
        #: What a deadlock report says a waiting node leader waits on.
        self.name = name
        self.arrivals: dict[int, list[int]] = {}
        #: ``(process, component, arrivals)`` of each waiting node leader.
        self.waiting: list = []
        #: Numbered: the last round's ``(number, state, directives)`` (one
        #: number: a tree barrier is a full party) and the root's answer.
        self.answered = None


class ControlPlane:
    """Routes control-plane RPCs to the owning manager shard.

    Owns the id counter of every synchronization object, the live-shard
    table, the tree-barrier combiners and, at ``n > 1``, the cross-shard
    consistency-gather hooks. A route costs no simulated event.
    """

    def __init__(self, system: "SamhitaSystem", shards: list["Manager"]):
        self.system = system
        self.shards = shards
        self.n = len(shards)
        self._next_id = 0
        #: Without a fault plan nothing can exhaust an RPC's retries, so a
        #: routed RPC has no failure to guard against
        #: (:meth:`_guarded`): the same "clean path pays nothing" rule
        #: ``Fabric.attach_injector`` follows, decided once.
        self._guard = system.config.faults is not None
        #: Logical shard index (object ``i``'s is ``i % n``) -> the manager
        #: serving it now, kept current by :meth:`handle_shard_failure`.
        self._live: list[Manager] = list(shards)
        self._dead_shards: set[int] = set()
        self.stats = StatSet("control_plane")
        #: Tree-barrier combiner state: level 0 keyed (barrier_id, comp),
        #: level 1 keyed (barrier_id, cell_index). Entries are retired by
        #: their leader before the upstream call, so barrier reuse across
        #: generations gets a fresh combiner each round.
        self._leaf_combiners: dict[tuple[int, str], dict] = {}
        self._cell_combiners: dict[tuple[int, int], _Cell] = {}
        #: (tid, barrier_id) -> the thread's arrivals there so far: each
        #: arrival's number on a build that can fail (``Manager._arrived``).
        self._numbers: defaultdict[tuple[int, int], int] = defaultdict(int)
        self._cell_of = {comp: i % self.n
                         for i, comp in enumerate(system._compute_order)}
        self._cell_members: dict[int, set[str]] | None = None
        if self.n > 1:
            # Cross-shard hooks: a barrier's consistency-region collection
            # must see every shard's lock logs, not just the root's. All
            # shards share one CR clock so any shard's walk-skip snapshot
            # covers appends on every shard (and survives failover merges).
            shared_clock = shards[0].cr_clock
            for mgr in shards:
                mgr.cr_source = self.all_lock_states
                mgr.cr_gather = self.cr_gather
                mgr.prune_hook = self.prune_lock_logs
                mgr.cr_clock = shared_clock

    # ------------------------------------------------------------------
    # shard routing
    # ------------------------------------------------------------------
    def shard_index(self, obj_id: int) -> int:
        return obj_id % self.n

    def live_index(self, index: int) -> int:
        return self.shards.index(self._live[index])

    def shard_for_id(self, obj_id: int) -> "Manager":
        return self._live[obj_id % self.n]

    def _route(self, index: int, op, *args):
        """``op(manager, *args)`` -- a :class:`Manager` RPC handler --
        against the live shard for logical shard ``index``: what a routed
        RPC returns (the lock and flat-barrier operations below resolve
        their shard inline where nothing can fail). Always through the
        live table: ``handle_shard_failure`` is callable with no fault
        plan at all, and the failover tests do call it."""
        if self._guard:
            return self._guarded(index, op, args)
        return op(self._live[index], *args)

    def _guarded(self, index: int, op, args):
        """Generator: :meth:`_route` on a build that can fail -- re-issue
        through a shard failover when the RPC exhausts its retries against
        a corpse."""
        while True:
            mgr = self._live[index]
            try:
                result = yield from op(mgr, *args)
                return result
            except RetryExhaustedError as err:
                yield from self.await_shard_failover(self.shards.index(mgr),
                                                     err)

    # ------------------------------------------------------------------
    # object creation (zero-cost, setup time)
    # ------------------------------------------------------------------
    def create_lock(self) -> int:
        self._next_id += 1
        self.shard_for_id(self._next_id).register_lock(self._next_id)
        return self._next_id

    def create_barrier(self, parties: int) -> int:
        if parties < 1:
            raise SynchronizationError("barrier needs at least one party")
        self._next_id += 1
        self.shard_for_id(self._next_id).register_barrier(self._next_id, parties)
        return self._next_id

    def create_cond(self) -> int:
        self._next_id += 1
        self.shard_for_id(self._next_id).register_cond(self._next_id)
        return self._next_id

    # ------------------------------------------------------------------
    # thread registry
    # ------------------------------------------------------------------
    def register_thread(self, tid: int) -> None:
        for mgr in self.shards:
            mgr.known_threads.add(tid)

    # ------------------------------------------------------------------
    # allocation RPCs: an allocation goes to the thread's shard, whose
    # slice the allocator carves it from; a free to the address's slice
    # ------------------------------------------------------------------
    def alloc_rpc(self, tid: int, comp: str, size: int,
                  force_shared: bool = False):
        return self._route(tid % self.n, Manager.alloc_rpc, tid, comp, size,
                           force_shared)

    def free_rpc(self, tid: int, comp: str, addr: int):
        page = addr // self.system.config.layout.page_bytes
        return self._route(shard_of_page(page, self.n), Manager.free_rpc,
                           tid, comp, addr)

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------
    def acquire_lock(self, tid: int, comp: str, lock_id: int):
        if self._guard:
            return self._guarded(lock_id % self.n, Manager.acquire_lock,
                                 (tid, comp, lock_id))
        return self._live[lock_id % self.n].acquire_lock(tid, comp, lock_id)

    def release_lock(self, tid: int, comp: str, lock_id: int, diffs: list,
                     payload_bytes: int, span_count: int,
                     invalidate_pages=(), stash=()):
        args = (tid, comp, lock_id, diffs, payload_bytes, span_count,
                invalidate_pages, stash)
        if self._guard:
            return self._guarded(lock_id % self.n, Manager.release_lock, args)
        return self._live[lock_id % self.n].release_lock(*args)

    def absorb_lock_stash(self, tid: int, lock_id: int, stash) -> None:
        """Synchronous stash absorption (see Manager.absorb_lock_stash)."""
        self._live[lock_id % self.n].absorb_lock_stash(tid, lock_id, stash)

    def flush_lock_stash(self, tid: int, comp: str, lock_id: int, stash):
        args = (tid, comp, lock_id, stash)
        if self._guard:
            return self._guarded(lock_id % self.n, Manager.flush_lock_stash,
                                 args)
        return self._live[lock_id % self.n].flush_lock_stash(*args)

    def holds_lock(self, tid: int, lock_id: int) -> bool:
        return self.shard_for_id(lock_id).holds_lock(tid, lock_id)

    def all_lock_states(self):
        """Every shard's lock-state table values (the barrier CR source)."""
        for mgr in self.live_managers():
            yield from mgr._locks.values()

    def prune_lock_logs(self, all_tids) -> bool:
        retained = False
        for mgr in self.live_managers():
            if mgr.prune_lock_logs(all_tids):
                retained = True
        return retained

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def barrier_parties(self, barrier_id: int) -> int:
        return self.shard_for_id(barrier_id).barrier_parties(barrier_id)

    def barrier_arrive(self, tid: int, comp: str, barrier_id: int, notices):
        """Flat arrival: a group of one. Same result shape as
        :meth:`tree_arrive`, ``(state, {tid: directive})``."""
        args = (comp, barrier_id, {tid: notices})
        if self._guard:
            self._numbers[tid, barrier_id] += 1
            return self._guarded(barrier_id % self.n, Manager.barrier_arrive,
                                 args + (self._numbers[tid, barrier_id],))
        return self._live[barrier_id % self.n].barrier_arrive(*args)

    def barrier_flush_done(self, tid: int, comp: str, barrier_id: int, state):
        return self._route(barrier_id % self.n, Manager.barrier_flush_done,
                           tid, comp, state)

    # ------------------------------------------------------------------
    # condition variables
    # ------------------------------------------------------------------
    def cond_register(self, tid: int, comp: str, cond_id: int):
        return self._route(cond_id % self.n, Manager.cond_register, tid, comp,
                           cond_id)

    def cond_signal(self, tid: int, comp: str, cond_id: int,
                    broadcast: bool = False):
        return self._route(cond_id % self.n, Manager.cond_signal, tid, comp,
                           cond_id, broadcast)

    # ------------------------------------------------------------------
    # cross-shard consistency gather
    # ------------------------------------------------------------------
    def live_managers(self):
        """Distinct live shard managers, in shard order."""
        return list(dict.fromkeys(self._live))

    def cr_gather(self, root: "Manager"):
        """Generator: the barrier root pulls the other live shards'
        consistency-region logs before computing directives -- one control
        round trip plus one service slot per other shard, once per barrier
        round (the cost that keeps cross-shard RegC honest).

        A hop that exhausts its retries recovers against the peer it
        failed on, not the root: it waits out that peer's failover, then
        gathers from whichever shard serves the peer now, unless that is
        the root itself."""
        scl = self.system.scl
        for mgr in self.live_managers():
            while mgr is not root:
                try:
                    yield from scl.request_response(
                        root.component, mgr.component, category="barrier")
                except RetryExhaustedError as err:
                    peer = self.shards.index(mgr)
                    yield from self.await_shard_failover(peer, err)
                    mgr = self._live[peer]
                    continue
                yield from mgr.resource.use(MANAGER_SERVICE_TIME)
                self.stats.incr("cr_gathers")
                break

    # ------------------------------------------------------------------
    # tree barriers
    # ------------------------------------------------------------------
    def _cell_population(self) -> dict[int, set[str]]:
        """Cell index -> compute components with threads (computed once;
        thread placement is fixed before the first barrier)."""
        if self._cell_members is None:
            members: dict[int, set[str]] = {}
            for comp in self.system._compute_order:
                if self.system.compute_servers[comp].threads:
                    members.setdefault(self._cell_of[comp], set()).add(comp)
            self._cell_members = members
        return self._cell_members

    def tree_arrive(self, tid: int, comp: str, barrier_id: int, notices):
        """Generator: combining barrier arrival.

        Level 0 combines threads on one compute node (free: shared
        memory); the node leader carries one message to its cell's
        combiner shard. Level 1 combines node leaders per cell; the cell
        leader carries ONE aggregate message to the barrier's root shard,
        which runs the normal arrival protocol. Replies fan back down:
        root -> cell shard (aggregate), cell shard -> each node leader
        (per-node directives), leader -> local threads (free).

        Level 1 is skipped where it has nothing to combine -- a node alone
        in its cell, or a single shard, whose combiner would be the root
        itself: that node's leader arrives at the root. Returns
        ``(state, directives)`` covering at least this node's threads.
        """
        engine = self.system.engine
        if self._guard:
            self._numbers[tid, barrier_id] += 1
        number = self._numbers[tid, barrier_id] if self._guard else None
        key = (barrier_id, comp)
        leaf = self._leaf_combiners.get(key)
        if leaf is None:
            leaf = {"arrivals": {}, "result": None,
                    "gate": engine.event(f"tree.leaf.b{barrier_id}.{comp}")}
            self._leaf_combiners[key] = leaf
        leaf["arrivals"][tid] = notices
        expected = len(self.system.compute_servers[comp].threads)
        if len(leaf["arrivals"]) == expected:
            del self._leaf_combiners[key]
            if (self.n == 1
                    or len(self._cell_population()[self._cell_of[comp]]) == 1):
                leaf["result"] = yield from self._route(
                    barrier_id % self.n, Manager.barrier_arrive,
                    comp, barrier_id, leaf["arrivals"], number)
            else:
                leaf["result"] = yield from self._cell_arrive(
                    comp, barrier_id, leaf["arrivals"], number)
            leaf["gate"].succeed()
        else:
            yield leaf["gate"]
        return leaf["result"]

    def _cell_arrive(self, comp: str, barrier_id: int,
                     arrivals: dict[int, list[int]], number):
        """Generator: node-leader leg of the tree (level 1 + root). Every
        hop goes through :meth:`_route`, so a dead combiner or root shard is
        waited out and re-resolved like any other control RPC.

        The request into the cell's shard is handled by :meth:`_join_cell`:
        a node leader that is not its cell's last sleeps until the cell's
        answer to it lands (:meth:`_cell_depart`); the last carries ONE
        aggregate message to the root shard, then answers the cell."""
        cell_idx = self._cell_of[comp]
        total_notices = 0
        for notices in arrivals.values():
            total_notices += len(notices)
        key = (barrier_id, cell_idx)
        answer = yield from self._route(
            cell_idx, Manager._rpc,
            comp, protocol.notice_message_bytes(total_notices), "barrier",
            self._join_cell, (key, arrivals, comp, number))
        if answer is not None:
            return answer
        # Cell leader: one aggregate message to the root shard.
        cell = self._cell_combiners[key]
        self._cell_combiners[key] = fresh = _Cell(cell.name)
        cell_comp = self._live[cell_idx].component
        state, directives = yield from self._route(
            barrier_id % self.n, Manager.barrier_arrive,
            cell_comp, barrier_id, cell.arrivals, number)
        if number is not None:
            fresh.answered = (number, state, directives)
        if cell.waiting:
            self.system.engine.schedule_each(self._cell_depart, cell.waiting,
                                             cell_idx, state, directives)
        mine, reply_bytes = group_reply(arrivals, directives)
        return (yield from self._route(
            cell_idx, Manager._reply_here,
            comp, "barrier", reply_bytes, True, (state, mine)))

    def _join_cell(self, proc, key: tuple[int, int],
                   arrivals: dict[int, list[int]], comp: str, number):
        """Handler body of a node leader's request to its cell's shard
        (see ``Manager._rpc``): combine its arrivals; the cell's last node
        goes on to the root (``DONE``), any other waits for the answer.

        A node leader the last closed round answered under this number lost
        that answer with the cell's shard: it is answered again from that
        round, not joined into the next (``Manager._arrived``'s rule)."""
        cell = self._cell_combiners.get(key)
        if cell is None:
            cell = self._cell_combiners[key] = _Cell(
                f"tree.cell.b{key[0]}.s{key[1]}")
        elif cell.answered is not None and cell.answered[0] == number:
            self._live[key[1]].stats.counters["barrier_reanswers"] += 1
            _number, state, directives = cell.answered
            mine, reply_bytes = group_reply(arrivals, directives)
            return reply_bytes, True, (state, mine)
        cell.arrivals.update(arrivals)
        if len(cell.waiting) + 1 != len(self._cell_population()[key[1]]):
            cell.waiting.append((proc, comp, arrivals))
            proc.blocked_on = cell
            return None
        return DONE

    def _cell_depart(self, waiting: tuple, cell_idx: int, state,
                     directives) -> None:
        """Combiner shard -> one waiting node leader: its per-node directive
        reply, from whichever shard serves the cell by now, in the slot its
        own resumption would take."""
        proc, comp, arrivals = waiting
        mine, reply_bytes = group_reply(arrivals, directives)
        self._live[cell_idx]._respond(
            proc, comp, "barrier", reply_bytes, True, (state, mine))

    # ------------------------------------------------------------------
    # shard failover
    # ------------------------------------------------------------------
    def handle_shard_failure(self, dead: int) -> None:
        """Merge a dead shard's synchronization tables into its ring
        successor and remap routing. Plain function (called from the
        failure detector outside any process), so the whole transition is
        atomic in simulated time. The tables survive the crash by design:
        they model metadata replicated to the successor, the same
        durability assumption the memory-server WAL makes."""
        if dead in self._dead_shards:
            return
        self._dead_shards.add(dead)
        successor = None
        for step in range(1, self.n):
            cand = (dead + step) % self.n
            if cand not in self._dead_shards:
                successor = cand
                break
        if successor is None:
            raise ReplicationError(
                f"manager shard {dead} failed with no live successor")
        dead_mgr = self.shards[dead]
        succ_mgr = self.shards[successor]
        succ_mgr._locks.update(dead_mgr._locks)
        succ_mgr._barriers.update(dead_mgr._barriers)
        succ_mgr._conds.update(dead_mgr._conds)
        succ_mgr.known_threads |= dead_mgr.known_threads
        # One copy of the sync state: a deposed shard whose crash window
        # ends may still serve a request retransmitted to it from before
        # the failover, and it must act on the successor's tables -- a
        # barrier round it closes rolls over there, not in a copy the
        # successor never reads.
        for mgr in self.shards:
            if mgr._barriers is dead_mgr._barriers:
                mgr._locks = succ_mgr._locks
                mgr._barriers = succ_mgr._barriers
                mgr._conds = succ_mgr._conds
        # Every index the dead shard served (its own, and any it had
        # inherited) is served by the successor now.
        live = self._live
        for idx, mgr in enumerate(live):
            if mgr is dead_mgr:
                live[idx] = succ_mgr
        self.stats.incr("shard_failovers")
        self.system.stats.incr("shard_failovers")

    def await_shard_failover(self, index: int, err):
        """Generator: a control RPC against shard ``index`` exhausted its
        retries. With a detector armed, wait (bounded by the detection
        budget) for the shard failover to land, then return so the caller
        re-routes; otherwise re-raise."""
        res = self.system.resilience
        if res is None or self.n == 1:
            raise err
        return res.failover_wait(self._dead_shards, index, self.stats,
                                 "shard_failover_retries", err)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def rpcs_by_shard(self) -> list[dict]:
        """Per-shard RPC load: total requests plus per-category counts
        (the observable behind the flat-load scaling claim)."""
        out = []
        for i, mgr in enumerate(self.shards):
            counters = mgr.stats.counters
            row = {"shard": i, "component": mgr.component,
                   "dead": i in self._dead_shards,
                   "requests": counters.get("requests", 0)}
            for cat in ("sync", "alloc", "lock", "barrier", "cond"):
                row[cat] = counters.get(f"requests.{cat}", 0)
            out.append(row)
        return out
