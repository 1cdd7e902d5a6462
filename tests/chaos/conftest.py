"""Shared plumbing for the chaos suite.

Seeds come from ``REPRO_CHAOS_SEEDS`` (comma-separated) so CI can run the
matrix one seed per job; the default trio covers all three canonical
profiles per seed. ``chaos_profiles(seed)`` sizes the server crash window
for the suite's small functional runs (~1.4 ms of simulated time), aimed at
``node1`` -- the memory-server node of every 4-thread cluster machine.
"""

from __future__ import annotations

import os

from repro.faults import drop_storm, latency_storm, permanent_crash, server_outage

DEFAULT_SEEDS = (11, 23, 47)


def chaos_seeds() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "")
    if not raw:
        return DEFAULT_SEEDS
    return tuple(int(s) for s in raw.split(",") if s.strip())


def chaos_profiles(seed: int) -> dict:
    """The canonical fault schedules the acceptance gate requires: random
    drop, latency spikes, and a memory-server crash-restart window."""
    return {
        "drop_storm": drop_storm(seed),
        "latency_storm": latency_storm(seed),
        "server_outage": server_outage(seed, "node1",
                                       start=2e-4, duration=3e-4),
    }


def kill_plan(seed: int, at: float):
    """The replication kill-test schedule: ``node1`` (always a memory
    server on cluster machines) crashes permanently at ``at`` and never
    restarts."""
    return permanent_crash(seed, "node1", at=at)
