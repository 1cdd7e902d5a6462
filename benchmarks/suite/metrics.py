"""From raw measurements to named metrics.

``BENCHMARK.json`` is the single list of metric names, units, directions
and bounds; this module computes a value for every name in it. End-to-end
metrics come from untraced passes, cold subprocesses and the traced pass's
call count; per-layer metrics from the traced pass's ledger, the cells'
``RunResult.stats`` and the spans.
"""

from __future__ import annotations

import json
import pathlib
import statistics

from repro.memory.backing import BackingStore
from repro.memory.cache import CacheEntry
from repro.memory.diff import PageDiff, SpanTwin, compute_diff_spans

from benchmarks.suite.harness import PassRecord, Session
from benchmarks.suite.tracer import LAYERS, code_key

CONTRACT_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_contract() -> dict:
    with open(CONTRACT_PATH) as fh:
        return json.load(fh)


def summary(values: list[float], pick=statistics.median) -> dict:
    """``pick`` of the samples as the value, plus median, quartiles and n.
    A dozen samples support quartiles but no tail percentile, so none is
    reported."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"value": pick(values), "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(results, namespace: str, key: str) -> float:
    """A counter summed over every cell that reports it."""
    return sum(r.stats.get(namespace, {}).get(key, 0) for r in results)


def sim_totals(results) -> dict:
    """The simulated quantities of one pass, summed over its cells. They
    repeat exactly from pass to pass (the fingerprint check proves it)."""
    def t(namespace, key):
        return _total(results, namespace, key)

    busiest_shard = sum(
        max((s["requests"] for s in r.stats.get("manager_rpcs_by_shard", [])),
            default=0) for r in results)
    return {
        "sim_elapsed_s": sum(r.elapsed for r in results),
        "sim_sync_s": sum(r.mean_sync_time for r in results),
        "runtime.sim_compute_s": sum(r.mean_compute_time for r in results),
        "experiments.cells": len(results),
        "sim.engine.events_scheduled": t("engine", "scheduled_events"),
        "sim.engine.events_coalesced": t("engine", "coalesced_events"),
        "sim.engine.epochs_run": t("engine", "epochs_run"),
        "interconnect.messages": t("fabric", "messages"),
        "interconnect.bytes": t("fabric", "bytes"),
        "interconnect.request_msgs": t("fabric", "messages.fetch_req"),
        "memory.cache.page_touches": t("caches", "page_touches"),
        "memory.cache.installs": t("caches", "installs"),
        "memory.cache.hit_ratio": _ratio(
            t("caches", "page_touches") - t("caches", "installs"),
            t("caches", "page_touches")),
        "memory.cache.evictions": t("caches", "evictions"),
        "memory.cache.evictions_dirty": t("caches", "evictions_dirty"),
        "memory.cache.invalidations": t("caches", "invalidations"),
        "memory.cache.twins_created": t("caches", "twins_created"),
        "memory.cache.diffs_taken": t("caches", "diffs_taken"),
        "memory.cache.diff_bytes": t("caches", "diff_bytes"),
        "memory.backing.page_reads": t("memory_servers", "page_reads"),
        "memory.backing.frames_created": t("memory_servers", "frames_created"),
        "core.memory_server.fetches": t("memory_servers", "fetches"),
        "core.memory_server.pages_served": t("memory_servers", "pages_served"),
        "core.memory_server.diffs_applied": t("memory_servers", "diffs_applied"),
        "core.memory_server.flush_bytes": t("memory_servers", "flush_bytes"),
        "core.memory_server.recall_trips": t("memory_servers", "recall_trips"),
        "core.memory_server.sheds": t("memory_servers", "sheds"),
        "core.manager.requests": t("manager", "requests"),
        "core.manager.requests_lock": t("manager", "requests.lock"),
        "core.manager.requests_barrier": t("manager", "requests.barrier"),
        "core.manager.barrier_rounds": t("manager", "barrier_rounds"),
        "core.manager.lock_acquires": t("manager", "lock_acquires"),
        "core.manager.lock_cache_hits": t("lock_cache", "lock_cache_hits"),
        "core.manager.max_shard_share": _ratio(busiest_shard,
                                               t("manager", "requests")),
        "core.compute_server.faults": t("compute_servers", "faults"),
        "core.compute_server.pages_fetched": t("compute_servers",
                                               "pages_fetched"),
        "core.compute_server.fetch_requests": t("compute_servers",
                                                "fetch_requests"),
        "core.rtbatch.trips": t("round_trips", "trips"),
        "core.rtbatch.lines": t("round_trips", "lines"),
        "core.rtbatch.lines_per_trip_mean": _ratio(t("round_trips", "lines"),
                                                   t("round_trips", "trips")),
        "core.rtbatch.hedges_issued": t("hedges", "hedges_issued"),
        "core.rtbatch.hedges_won": t("hedges", "hedges_won"),
        "core.rtbatch.hedges_lost": t("hedges", "hedges_lost"),
        "core.prefetcher.prefetch_installs": t("prefetch", "prefetch_installs"),
        "core.prefetcher.prefetch_hits": t("prefetch", "prefetch_hits"),
        "core.prefetcher.prefetch_accuracy": _ratio(
            t("prefetch", "prefetch_hits"), t("prefetch", "prefetch_installs")),
        "faults.drops_injected": t("faults", "drops_injected"),
        "faults.retries": t("faults", "retries"),
        "faults.retransmits": t("faults", "retransmits"),
        "faults.timeouts": t("faults", "timeouts"),
        "faults.breaker_opens": t("hedges", "breaker_opens"),
        "faults.dup_msgs_discarded": t("faults", "dup_msgs_discarded"),
    }


#: Per-layer counts only the profile can see: exact calls of named functions.
_PROFILED_CALLS = {
    "memory.cache.entry_constructions": (CacheEntry.__init__,),
    "memory.diff.span_extractions": (SpanTwin.diff_spans, compute_diff_spans),
    "memory.diff.apply_calls": (PageDiff.apply_to, BackingStore.apply_diff),
}


def end_to_end(session: Session, walls: list[float], traced: PassRecord,
               colds: list[dict]) -> dict:
    """Values (with quartiles where sampled) of every end-to-end metric."""
    sims = sim_totals(traced.results)
    failed = len(session.failures)
    return {
        # The fastest pass: interference from the host's other tenants only
        # ever adds time, and it comes in bursts longer than a pass.
        "wall_s": summary(walls, min),
        "host_calls": {"value": traced.ledger["total_calls"]},
        "sim_elapsed_s": {"value": sims["sim_elapsed_s"]},
        "sim_sync_s": {"value": sims["sim_sync_s"]},
        "peak_rss_mb": summary([c["peak_rss_mb"] for c in colds
                                if "peak_rss_mb" in c]),
        "setup_s": summary([c["setup_s"] for c in colds]),
        "check_pass_rate": {"value": 1.0 - failed / session.attempted},
    }


def per_layer(walls: list[float], traced: PassRecord, colds: list[dict],
              ) -> dict:
    """Value of every per-layer metric, from one traced pass."""
    ledger = traced.ledger
    wall_s = min(walls)
    out = {name: {"value": value}
           for name, value in sim_totals(traced.results).items()
           if "." in name}
    for layer in LAYERS:
        out[f"{layer}.host_self_s"] = {
            "value": ledger["layers"][layer]["host_self_s"]}
        out[f"{layer}.calls"] = {"value": ledger["layers"][layer]["calls"]}
    for name, functions in _PROFILED_CALLS.items():
        out[name] = {"value": sum(ledger["calls_by_func"].get(code_key(f), 0)
                                  for f in functions)}
    out["sim.engine.events_per_s"] = {
        "value": out["sim.engine.events_scheduled"]["value"] / wall_s}
    out["core.system.build_s"] = {"value": traced.spans.total("build")}
    out["experiments.cold_first_pass_s"] = {
        "value": statistics.median(c["first_pass_s"] for c in colds
                                   if "first_pass_s" in c)}
    out["python.gc.gc_s"] = {"value": traced.gc_s}
    out["python.gc.gc_objects"] = {"value": traced.gc_objects}
    out["trace.host_total_s"] = {"value": ledger["total_s"]}
    out["trace.overhead_ratio"] = {"value": traced.wall_s / wall_s}
    return out


def with_units(values: dict, specs: list[dict]) -> dict:
    """``values`` restricted to and ordered as ``specs``, units attached.
    A name in the contract that was not computed is a bug: KeyError."""
    return {spec["name"]: {**values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}
