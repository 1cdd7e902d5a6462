"""The heartbeat failure detector for memory servers and manager shards."""

from __future__ import annotations

from repro.sim.stats import StatSet

#: The failure detector's probe cadence (seconds) and the consecutive
#: missed beats that declare a component dead: a crash is declared
#: ``HEARTBEAT_MISSES x HEARTBEAT_INTERVAL`` (30 us) after it is suspected.
HEARTBEAT_INTERVAL = 10e-6
HEARTBEAT_MISSES = 3


class FailureDetector:
    """Heartbeat failure detector for memory servers and manager shards.

    REACTIVE, not free-running: the DES engine only returns when its event
    heap drains, so a detector that pinged every server forever would keep
    every run alive (and perturb fault-free timing). Instead it stays
    dormant until the fault layer records a delivery verdict against a
    server (:meth:`suspect`, called from the injector's crash branches --
    the moment a real cluster would first notice trouble). Only then does
    it probe that one server every :data:`HEARTBEAT_INTERVAL` seconds;
    :data:`HEARTBEAT_MISSES` consecutive missed beats declare the server
    dead and trigger its failover (backup promotion, home remap, WAL-tail
    replay). A probe that answers clears the suspicion, so
    transient outages shorter than ``misses x interval`` cost nothing but
    the probes themselves.

    Probes consult the fault model directly (the modeled heartbeat: a real
    ping would drop on exactly the injector's schedule). Two populations
    are probe-able, each failed over its own way: memory servers (only
    with ``replication_factor > 1``: without a backup there is nothing to
    promote) and manager shards (only with ``manager_shards > 1``: a lone
    manager has no successor). A declaration fails over at once, with no
    vote: the modelled machine does not split (DESIGN.md §13), and the
    successor inherits the dead component's own state, so there is no
    second copy to diverge from. A component whose crash window outlives
    detection comes back deposed: a memory server merges nothing
    (``Resilience.check_alive``), a shard acts on its successor's tables.
    """

    def __init__(self, resilience):
        system = resilience.system
        config = system.config
        self.engine = system.engine
        #: What a declaration fails over through (:mod:`repro.resilience`).
        self.resilience = resilience
        self.injector = system.injector
        self.stats = StatSet("failure_detector")
        #: comp -> consecutive missed beats, for servers under suspicion.
        self._misses: dict[str, int] = {}
        #: comp -> simulated time of the last probe (or the suspicion that
        #: started probing): lets a probe detect that the component came
        #: back up *between* beats, so two distinct short outages straddling
        #: the probe cadence cannot accumulate into a false declaration.
        self._last_probe: dict[str, float] = {}
        self._declared: set[str] = set()
        self._index_of = ({s.component: s.index
                           for s in system.memory_servers}
                          if config.replication_factor > 1 else {})
        self._shard_of: dict[str, int] = {}
        if config.manager_shards > 1:
            for i, mgr in enumerate(system.managers):
                # Co-located shards (one component hosting several) cannot
                # fail independently; the first registration wins.
                self._shard_of.setdefault(mgr.component, i)

    def suspect(self, comp: str) -> None:
        """A message verdict implicated ``comp``: start probing it.

        Idempotent -- repeated verdicts against an already-suspected (or
        already-declared) server add nothing, so the injector can call this
        on every drop without flooding the heap with probe timers.
        """
        if ((comp not in self._index_of and comp not in self._shard_of)
                or comp in self._declared or comp in self._misses):
            return
        self._misses[comp] = 0
        self._last_probe[comp] = self.engine.now
        self.stats.incr("suspicions")
        self.engine.schedule(HEARTBEAT_INTERVAL, self._probe, comp)

    def _probe(self, comp: str) -> None:
        if comp in self._declared or comp not in self._misses:
            return
        self.stats.incr("heartbeats")
        now = self.engine.now
        last = self._last_probe.get(comp, now)
        self._last_probe[comp] = now
        if self.injector.server_down(comp, now):
            if (self._misses[comp]
                    and self.injector.came_up_between(comp, last, now)):
                # The component was reachable at some instant since the
                # last beat (a crash window ended mid-probe): what it suffers
                # NOW is a fresh outage, not a continuation of the one
                # under suspicion. Only consecutive misses of one outage
                # may accumulate toward a declaration.
                self._misses[comp] = 0
                self.stats.incr("suspicions_cleared")
            self._misses[comp] += 1
            if self._misses[comp] >= HEARTBEAT_MISSES:
                self._declare_dead(comp)
                return
            self.engine.schedule(HEARTBEAT_INTERVAL, self._probe, comp)
        else:
            # The beat answered: transient blip, stand down.
            del self._misses[comp]
            self._last_probe.pop(comp, None)
            self.stats.incr("suspicions_cleared")

    def _declare_dead(self, comp: str) -> None:
        self._declared.add(comp)
        self._misses.pop(comp, None)
        self._last_probe.pop(comp, None)
        if comp in self._shard_of:
            self.stats.incr("shards_declared_dead")
            self.resilience.system.control.handle_shard_failure(
                self._shard_of[comp])
        if comp in self._index_of:
            self.stats.incr("servers_declared_dead")
            self.resilience.handle_server_failure(self._index_of[comp])
