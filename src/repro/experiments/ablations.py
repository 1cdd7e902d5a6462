"""Ablations of the design choices DESIGN.md §6 calls out.

Each builder toggles one mechanism of §II / §V and returns its measured
consequence as a :class:`FigureResult`, archived as
``benchmarks/results/ablation_<name>.txt``; its claim is in
:mod:`repro.experiments.verification`. A table's columns are the
settings compared, its rows the quantities measured. Times are shown in
milliseconds, so the rendered table keeps every digit of the
microsecond-scale cells.
"""

from __future__ import annotations

from repro.core import SamhitaConfig, SamhitaSystem
from repro.experiments.harness import run_workload
from repro.experiments.results import FigureResult
from repro.interconnect import scif_link, verbs_proxy_link
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
from repro.memory import MemoryLayout
from repro.memory.cache import EvictionPolicy
from repro.runtime import Runtime, SamhitaBackend

MS = 1e3

STRIDED = MicrobenchParams(N=10, M=10, S=4, B=256,
                           allocation=Allocation.GLOBAL_STRIDED)
THREADS = 8


def _table(name: str, title: str, xlabel: str, columns: dict) -> FigureResult:
    """``columns`` maps each compared setting to ``{row label: value}``."""
    fr = FigureResult(figure=f"ablation_{name}", title=title, xlabel=xlabel,
                      ylabel="time (ms) or count, per row")
    for x, cells in columns.items():
        for label, value in cells.items():
            (fr.series.get(label) or fr.new_series(label)).add(x, value)
    return fr


def _run(params, config=None, n_threads=THREADS):
    return run_workload("samhita", n_threads, spawn_microbench, params,
                        config=config)


def _times(result, *which: str) -> dict[str, float]:
    """The result's mean compute and / or sync time, in ms."""
    means = {"compute": result.mean_compute_time,
             "sync": result.mean_sync_time}
    return {f"{w} (ms)": means[w] * MS for w in which}


def _stream_scan_time(pages_per_line: int, mbytes: int = 2) -> float:
    """Virtual time for one thread to cold-stream ``mbytes`` MiB through the
    DSM with a given line size (prefetch off to isolate the effect)."""
    config = SamhitaConfig(layout=MemoryLayout(pages_per_line=pages_per_line),
                           prefetch=False, functional=False)
    rt = Runtime("samhita", n_threads=1, config=config)
    total = mbytes << 20

    def scan(ctx):
        addr = yield from ctx.malloc(total)
        for off in range(0, total, 4096):
            yield from ctx.read(addr + off, 8)
        return ctx.clock.compute

    rt.spawn(scan)
    return rt.run().value_of(0)


def line_size() -> FigureResult:
    """Pages per cache line: a cold sequential scan vs strided sharing."""
    columns = {}
    for ppl in (1, 2, 4, 8):
        scan = _stream_scan_time(ppl)
        strided = _run(STRIDED, SamhitaConfig(
            layout=MemoryLayout(pages_per_line=ppl)))
        columns[ppl] = {
            "2MiB-scan (ms)": scan * MS,
            "strided compute (ms)": strided.mean_compute_time * MS,
            "strided page bytes": strided.stats["fabric"].get("bytes.page", 0)}
    return _table("line_size", "Cache line size (P=8 strided, 1-thread scan)",
                  "pages per line", columns)


def prefetch() -> FigureResult:
    """Adjacent-line prefetch on vs off, on Figure 7's 32-thread row."""
    columns = {}
    for S in (1, 2, 4, 8):
        params = MicrobenchParams(N=10, M=10, S=S, B=256,
                                  allocation=Allocation.GLOBAL)
        on = _run(params, n_threads=32)
        off = _run(params, SamhitaConfig(prefetch=False), n_threads=32)
        columns[S] = {
            "prefetch on (ms)": on.mean_compute_time * MS,
            "prefetch off (ms)": off.mean_compute_time * MS,
            "prefetch hits": on.stats["caches"].get("prefetch_hits", 0)}
    return _table("prefetch", "Adjacent-line prefetch (global allocation, "
                  "P=32, M=10)", "number of rows of data (S)", columns)


def eviction() -> FigureResult:
    """Eviction policy under cache pressure (an 8-page cache)."""
    # 16 rows = 8 pages of data + the shared-global page, against an 8-page
    # cache: guaranteed eviction pressure every outer iteration.
    params = MicrobenchParams(N=6, M=2, S=16, B=256, allocation=Allocation.LOCAL)
    columns = {}
    for policy in EvictionPolicy:
        result = _run(params, SamhitaConfig(cache_capacity_pages=8,
                                            prefetch=False,
                                            eviction_policy=policy),
                      n_threads=2)
        caches = result.stats["caches"]
        columns[policy.value] = {
            **_times(result, "compute"),
            "evictions": caches.get("evictions", 0),
            "dirty evictions": caches.get("evictions_dirty", 0)}
    return _table("eviction", "Eviction policy under cache pressure (P=2)",
                  "policy", columns)


def multi_writer() -> FigureResult:
    """Twin/diff multiple-writer protocol vs whole-page write-back."""
    columns = {}
    for label, on in (("multiple-writer", True), ("single-writer", False)):
        result = _run(STRIDED, SamhitaConfig(multiple_writer=on))
        columns[label] = {
            "barrier-diff bytes":
                result.stats["fabric"].get("bytes.barrier_diff", 0),
            **_times(result, "sync")}
    return _table("multi_writer", "Multiple-writer protocol (P=8 strided)",
                  "protocol", columns)


def regc_finegrain() -> FigureResult:
    """RegC's fine-grained consistency-region updates vs page-grain."""
    lock_heavy = MicrobenchParams(N=20, M=1, S=1, B=64,
                                  allocation=Allocation.LOCAL)
    columns = {}
    for label, fine in (("fine-grain", True), ("page-grain", False)):
        result = _run(lock_heavy, SamhitaConfig(regc_fine_grain=fine))
        fabric = result.stats["fabric"]
        columns[label] = {
            "CR-related bytes": (fabric.get("bytes.fine_grain", 0)
                                 + fabric.get("bytes.cr_page", 0)
                                 + fabric.get("bytes.page", 0)),
            **_times(result, "sync")}
    return _table("regc_finegrain", "Consistency-region update grain (P=8)",
                  "CR updates", columns)


def allocator_striping() -> FigureResult:
    """One memory server vs large allocations striped across two and four."""
    big = MicrobenchParams(N=4, M=1, S=32, B=512,
                           allocation=Allocation.GLOBAL_STRIDED)
    columns = {n: _times(_run(big, SamhitaConfig(n_memory_servers=n),
                              n_threads=16), "compute")
               for n in (1, 2, 4)}
    return _table("allocator_striping", "Allocator striping (P=16 strided)",
                  "memory servers", columns)


def local_sync() -> FigureResult:
    """§V: single-node sync without the manager round-trip."""
    params = MicrobenchParams(N=20, M=1, S=1, B=64, allocation=Allocation.LOCAL)
    columns = {}
    for label, local in (("manager-mediated", False), ("local (§V)", True)):
        system = SamhitaSystem.single_node(
            config=SamhitaConfig(local_sync_optimization=local))
        rt = Runtime(SamhitaBackend(4, system=system))
        spawn_microbench(rt, params)
        columns[label] = _times(rt.run(), "sync")
    return _table("local_sync", "Single-node synchronization (P=4)", "synchronization",
                  columns)


def hierarchical_sync() -> FigureResult:
    """Flat vs node-combining barriers, at 8 and 32 threads.

    ``tree_barriers`` on one shard, where the tree has no cell level."""
    params = MicrobenchParams(N=10, M=1, S=1, B=64, allocation=Allocation.LOCAL)
    columns = {}
    for n_threads in (8, 32):
        flat, combined = (_run(params, SamhitaConfig(tree_barriers=tree),
                               n_threads=n_threads) for tree in (False, True))
        columns[n_threads] = {"flat sync (ms)": flat.mean_sync_time * MS,
                              "combined sync (ms)":
                                  combined.mean_sync_time * MS}
    return _table("hierarchical_sync", "Node-combining barriers", "threads",
                  columns)


def scif() -> FigureResult:
    """§V: a verbs proxy over PCIe vs direct SCIF, on the Figure 1 node."""
    params = MicrobenchParams(N=10, M=10, S=2, B=256,
                              allocation=Allocation.GLOBAL)
    columns = {}
    for label, bus in (("verbs proxy", verbs_proxy_link()),
                       ("SCIF direct", scif_link())):
        system = SamhitaSystem.hetero(config=SamhitaConfig(functional=False),
                                      bus=bus)
        rt = Runtime(SamhitaBackend(8, system=system))
        spawn_microbench(rt, params)
        result = rt.run()
        columns[label] = {"compute + sync (ms)": (result.mean_compute_time
                                                  + result.mean_sync_time) * MS}
    return _table("scif", "Coprocessor path on the Figure 1 machine (P=8)",
                  "path", columns)


def coherence_baseline() -> FigureResult:
    """RegC vs the eager write-invalidate (IVY-style) 1990s protocol."""
    columns: dict = {"regc": {}, "ivy": {}}
    for workload, allocation in (("local", Allocation.LOCAL),
                                 ("strided", Allocation.GLOBAL_STRIDED)):
        params = MicrobenchParams(N=6, M=4, S=2, B=256, allocation=allocation)
        for proto, config in (("regc", SamhitaConfig()),
                              ("ivy", SamhitaConfig(coherence="ivy"))):
            result = _run(params, config)
            columns[proto].update({
                f"{workload} compute (ms)": result.mean_compute_time * MS,
                f"{workload} sync (ms)": result.mean_sync_time * MS})
    return _table("coherence_baseline", "Coherence protocol (P=8)",
                  "protocol", columns)

