"""Ablations of the design choices DESIGN.md §6 calls out.

Every mechanism §II describes is toggled independently and its measured
consequence asserted. Results are archived under
``benchmarks/results/ablation_*.txt``.
"""

from __future__ import annotations

import pathlib

from repro.core import SamhitaConfig, SamhitaSystem
from repro.experiments.harness import run_workload
from repro.interconnect import gigabit_ethernet, ib_qdr, scif_link, verbs_proxy_link
from repro.kernels import Allocation, MicrobenchParams, spawn_microbench
from repro.memory import MemoryLayout
from repro.memory.cache import EvictionPolicy
from repro.runtime import Runtime, SamhitaBackend

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

STRIDED = MicrobenchParams(N=10, M=10, S=4, B=256,
                           allocation=Allocation.GLOBAL_STRIDED)
#: 32 rows x 2 KiB = 64 KiB per thread: four cache lines, so sequential
#: scans exercise the adjacent-line prefetcher.
LOCAL_BIG = MicrobenchParams(N=4, M=2, S=32, B=256, allocation=Allocation.LOCAL)
THREADS = 8


def _archive(name: str, lines: list[str]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    (RESULTS_DIR / f"ablation_{name}.txt").write_text(text + "\n")
    print("\n" + text)


def _run(params, config=None, n_threads=THREADS, **kw):
    return run_workload("samhita", n_threads, spawn_microbench, params,
                        config=config, **kw)


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


def test_line_size(benchmark):
    """Multi-page cache lines amortize latency for spatially-local scans but
    amplify false-sharing traffic for strided access."""

    def sweep():
        out = {}
        for ppl in (1, 2, 4, 8):
            scan = _stream_scan_time(ppl)
            strided = _run(STRIDED, SamhitaConfig(
                layout=MemoryLayout(pages_per_line=ppl)))
            out[ppl] = (scan, strided.mean_compute_time,
                        strided.stats["fabric"].get("bytes.page", 0))
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("line_size", [
        "pages/line  2MiB-scan(s)  strided-compute(s)  strided-page-bytes",
        *(f"{ppl:10d}  {v[0]:.6f}     {v[1]:.6f}           {v[2]:.0f}"
          for ppl, v in out.items()),
    ])
    # Bigger lines shorten the cold sequential scan (fewer round-trips)...
    assert out[8][0] < 0.5 * out[1][0]
    # ...but move more page bytes under heavy false sharing.
    assert out[8][2] > out[1][2]


def test_prefetch(benchmark):
    """Adjacent-line prefetch (§II "anticipatory paging") overlaps fetch
    latency for sequential access."""

    def sweep():
        on = _run(LOCAL_BIG, SamhitaConfig())
        off = _run(LOCAL_BIG, SamhitaConfig(prefetch=False))
        return on, off

    on, off = benchmark.pedantic(sweep, rounds=1, iterations=1)
    hits = on.stats["caches"].get("prefetch_hits", 0)
    _archive("prefetch", [
        f"prefetch on : compute={on.mean_compute_time:.6f}s prefetch_hits={hits}",
        f"prefetch off: compute={off.mean_compute_time:.6f}s",
    ])
    assert hits > 0
    assert on.mean_compute_time <= off.mean_compute_time


def test_eviction_policy(benchmark):
    """Under cache pressure the paper's dirty-biased policy is compared
    against plain LRU and the conventional clean-first heuristic."""

    # 16 rows = 8 pages of data + the shared-global page, against an 8-page
    # cache: guaranteed eviction pressure every outer iteration.
    params = MicrobenchParams(N=6, M=2, S=16, B=256, allocation=Allocation.LOCAL)

    def sweep():
        out = {}
        for policy in EvictionPolicy:
            config = SamhitaConfig(cache_capacity_pages=8,
                                   prefetch=False,
                                   eviction_policy=policy)
            result = run_workload("samhita", 2, spawn_microbench, params,
                                  config=config)
            caches = result.stats["caches"]
            out[policy.value] = (result.mean_compute_time,
                                 caches.get("evictions", 0),
                                 caches.get("evictions_dirty", 0))
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("eviction", [
        "policy        compute(s)  evictions  dirty-evictions",
        *(f"{k:12s}  {v[0]:.6f}    {v[1]:7d}  {v[2]:7d}" for k, v in out.items()),
    ])
    # All policies evict under this pressure; dirty-biased writes back more
    # aggressively (more dirty evictions than clean-first).
    assert all(v[1] > 0 for v in out.values())
    assert out["dirty-biased"][2] >= out["clean-first"][2]


def test_multiple_writer(benchmark):
    """The twin/diff multiple-writer protocol vs single-writer whole-page
    write-back: diffs shrink sync traffic under false sharing."""

    def sweep():
        mw = _run(STRIDED, SamhitaConfig(multiple_writer=True))
        sw = _run(STRIDED, SamhitaConfig(multiple_writer=False))
        return mw, sw

    mw, sw = benchmark.pedantic(sweep, rounds=1, iterations=1)
    mw_bytes = mw.stats["fabric"].get("bytes.barrier_diff", 0)
    sw_bytes = sw.stats["fabric"].get("bytes.barrier_diff", 0)
    _archive("multi_writer", [
        f"multiple-writer: barrier-diff bytes={mw_bytes:.0f} sync={mw.mean_sync_time:.6f}s",
        f"single-writer  : barrier-diff bytes={sw_bytes:.0f} sync={sw.mean_sync_time:.6f}s",
    ])
    assert sw_bytes > mw_bytes
    assert sw.mean_sync_time > mw.mean_sync_time


def test_regc_fine_grain(benchmark):
    """RegC's fine-grained consistency-region updates vs the page-grained
    fallback: lock traffic is bytes, not pages."""

    lock_heavy = MicrobenchParams(N=20, M=1, S=1, B=64,
                                  allocation=Allocation.LOCAL)

    def sweep():
        fine = _run(lock_heavy, SamhitaConfig(regc_fine_grain=True))
        page = _run(lock_heavy, SamhitaConfig(regc_fine_grain=False))
        return fine, page

    fine, page = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def lock_bytes(result):
        fabric = result.stats["fabric"]
        return (fabric.get("bytes.fine_grain", 0) + fabric.get("bytes.cr_page", 0)
                + fabric.get("bytes.page", 0))

    _archive("regc_finegrain", [
        f"fine-grain: CR-related bytes={lock_bytes(fine):.0f} sync={fine.mean_sync_time:.6f}s",
        f"page-grain: CR-related bytes={lock_bytes(page):.0f} sync={page.mean_sync_time:.6f}s",
    ])
    assert lock_bytes(page) > 2 * lock_bytes(fine)
    assert page.mean_sync_time > fine.mean_sync_time


def test_allocator_striping(benchmark):
    """Striping large allocations across memory servers relieves the
    hot-spot the single-server configuration creates (§II strategy 3)."""

    big = MicrobenchParams(N=4, M=1, S=32, B=512,
                           allocation=Allocation.GLOBAL_STRIDED)

    def sweep():
        one = _run(big, SamhitaConfig(n_memory_servers=1), n_threads=16)
        four = _run(big, SamhitaConfig(n_memory_servers=4), n_threads=16)
        return one, four

    one, four = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("allocator_striping", [
        f"1 memory server : compute={one.mean_compute_time:.6f}s",
        f"4 memory servers: compute={four.mean_compute_time:.6f}s",
    ])
    # Fetches spread across four servers instead of queueing at one.
    assert four.mean_compute_time < one.mean_compute_time


def test_local_sync_optimization(benchmark):
    """§V: a single-node Samhita can skip the manager round-trip for
    synchronization."""

    params = MicrobenchParams(N=20, M=1, S=1, B=64, allocation=Allocation.LOCAL)

    def one(local_opt):
        config = SamhitaConfig(local_sync_optimization=local_opt)
        system = SamhitaSystem.single_node(config=config)
        rt = Runtime(SamhitaBackend(4, system=system))
        spawn_microbench(rt, params)
        return rt.run()

    def sweep():
        return one(False), one(True)

    baseline, optimized = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("local_sync", [
        f"manager-mediated sync: {baseline.mean_sync_time:.6f}s",
        f"local sync (§V)      : {optimized.mean_sync_time:.6f}s",
    ])
    assert optimized.mean_sync_time < baseline.mean_sync_time


def test_eager_refresh(benchmark):
    """Update-style barriers (Munin-flavoured): batched in-barrier refresh
    vs lazy refaulting -- where the false-sharing bill gets paid."""

    def sweep():
        lazy = _run(STRIDED, SamhitaConfig())
        eager = _run(STRIDED, SamhitaConfig(barrier_eager_refresh=True))
        return lazy, eager

    lazy, eager = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("eager_refresh", [
        f"lazy : compute={lazy.mean_compute_time:.6f}s sync={lazy.mean_sync_time:.6f}s "
        f"faults={lazy.stats['compute_servers'].get('faults', 0)}",
        f"eager: compute={eager.mean_compute_time:.6f}s sync={eager.mean_sync_time:.6f}s "
        f"faults={eager.stats['compute_servers'].get('faults', 0)}",
    ])
    assert eager.mean_compute_time < lazy.mean_compute_time
    assert eager.mean_sync_time > lazy.mean_sync_time


def test_hierarchical_sync(benchmark):
    """Node-combining barriers (§V-adjacent; ``tree_barriers`` on one
    shard, where the tree has no cell level): manager traffic per barrier
    drops from O(threads) to O(nodes), flattening the Figure 11 slope."""

    params = MicrobenchParams(N=10, M=1, S=1, B=64, allocation=Allocation.LOCAL)

    def one(hierarchical, n_threads):
        config = SamhitaConfig(tree_barriers=hierarchical)
        return run_workload("samhita", n_threads, spawn_microbench, params,
                            config=config)

    def sweep():
        out = {}
        for n_threads in (8, 32):
            flat = one(False, n_threads)
            combined = one(True, n_threads)
            out[n_threads] = (flat.mean_sync_time, combined.mean_sync_time)
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("hierarchical_sync", [
        "threads  flat-sync(s)  combined-sync(s)",
        *(f"{p:7d}  {v[0]:.6f}      {v[1]:.6f}" for p, v in out.items()),
    ])
    # The benefit grows with thread count.
    gain8 = out[8][0] / out[8][1]
    gain32 = out[32][0] / out[32][1]
    assert gain32 > gain8 > 0.9


def test_scif_vs_verbs_proxy(benchmark):
    """§V: a direct SCIF communication layer vs tunnelling verbs over PCIe
    through a proxy, on the Figure 1 heterogeneous node."""

    params = MicrobenchParams(N=10, M=10, S=2, B=256,
                              allocation=Allocation.GLOBAL)

    def one(bus):
        system = SamhitaSystem.hetero(config=SamhitaConfig(functional=False),
                                      bus=bus)
        rt = Runtime(SamhitaBackend(8, system=system))
        spawn_microbench(rt, params)
        return rt.run()

    def sweep():
        return one(verbs_proxy_link()), one(scif_link())

    proxy, scif = benchmark.pedantic(sweep, rounds=1, iterations=1)
    total = lambda r: r.mean_compute_time + r.mean_sync_time
    _archive("scif", [
        f"verbs proxy: total={total(proxy):.6f}s",
        f"SCIF direct: total={total(scif):.6f}s",
    ])
    assert total(scif) < total(proxy)


def test_page_size(benchmark):
    """Page granularity: smaller pages shrink false-sharing diffs but
    multiply fault counts; bigger pages amortize fetches but amplify
    sharing. 4 KiB (the paper's mprotect granularity) sits between."""

    def sweep():
        out = {}
        for page_bytes in (1024, 4096, 16384):
            layout = MemoryLayout(page_bytes=page_bytes)
            result = _run(STRIDED, SamhitaConfig(layout=layout))
            out[page_bytes] = (result.mean_compute_time,
                               result.mean_sync_time,
                               result.stats["fabric"].get("bytes", 0))
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("page_size", [
        "page(B)  compute(s)  sync(s)   total-bytes",
        *(f"{p:7d}  {v[0]:.6f}    {v[1]:.6f}  {v[2]:.0f}" for p, v in out.items()),
    ])
    # Bigger pages move more bytes under false sharing.
    assert out[16384][2] > out[1024][2]


def test_coherence_baseline(benchmark):
    """RegC vs the eager write-invalidate (IVY-style) protocol of 1990s
    page-based DSMs -- the implicit baseline the paper's whole design
    (multiple-writer diffs + consistency regions) exists to beat."""

    workloads = {
        "local": MicrobenchParams(N=6, M=4, S=2, B=256,
                                  allocation=Allocation.LOCAL),
        "strided": MicrobenchParams(N=6, M=4, S=2, B=256,
                                    allocation=Allocation.GLOBAL_STRIDED),
    }

    def sweep():
        out = {}
        for name, params in workloads.items():
            for proto, config in (("regc", SamhitaConfig()),
                                  ("ivy", SamhitaConfig(coherence="ivy"))):
                result = run_workload("samhita", 8, spawn_microbench, params,
                                      config=config)
                out[(name, proto)] = (result.mean_compute_time,
                                      result.mean_sync_time)
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("coherence_baseline", [
        "workload  protocol  compute(s)  sync(s)",
        *(f"{w:8s}  {p:8s}  {v[0]:.6f}    {v[1]:.6f}"
          for (w, p), v in out.items()),
    ])
    # False sharing: the eager protocol ping-pongs data pages on every
    # write -- an order of magnitude over RegC.
    assert out[("strided", "ivy")][0] > 10 * out[("strided", "regc")][0]
    # With private data IVY's only ping-pong is the shared counter, so it
    # sits far below its own strided cost...
    assert out[("local", "ivy")][0] < 0.2 * out[("strided", "ivy")][0]
    # ...but RegC's fine-grained CR updates beat even that.
    assert out[("local", "regc")][0] < out[("local", "ivy")][0]


def test_interconnect_history(benchmark):
    """Why 1990s DSM 'never made a big impact': the identical system over
    gigabit Ethernet vs QDR InfiniBand."""

    params = MicrobenchParams(N=5, M=10, S=2, B=256,
                              allocation=Allocation.GLOBAL)

    def one(link):
        return run_workload("samhita", 8, spawn_microbench, params,
                            fabric_link=link)

    def sweep():
        return one(gigabit_ethernet()), one(ib_qdr())

    gbe, ib = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _archive("interconnect_history", [
        f"1 GbE (1990s-class): compute={gbe.mean_compute_time:.6f}s "
        f"sync={gbe.mean_sync_time:.6f}s",
        f"QDR InfiniBand     : compute={ib.mean_compute_time:.6f}s "
        f"sync={ib.mean_sync_time:.6f}s",
    ])
    # The interconnect alone moves DSM from hopeless to viable.
    assert gbe.mean_sync_time > 5 * ib.mean_sync_time
