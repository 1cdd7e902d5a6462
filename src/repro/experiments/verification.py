"""Reproduction verification: every archived table as a pass/fail claim.

:data:`TABLES` maps each ``benchmarks/results`` file stem to the builder of
its table: the 11 paper figures, 10 ablations and 3 extended experiments.
:data:`CLAIMS` holds one claim per table. A paper figure's claim quotes its
§III sentence; any other claim quotes the §II / §V text its mechanism rests
on where there is one (else it names its DESIGN.md §6 row) and says its
threshold is a repo prediction. :func:`check_claims`
builds every table once and evaluates every claim on them; ``python -m
repro.experiments verify`` prints the verdicts and ``campaign`` writes
them with the tables.

A claim whose FAIL is a stated deviation (EXPERIMENTS.md, "Known
deviations") records its number in ``deviation``. A run passes when every
verdict matches its record, so the change that fixes a deviation must also
delete its record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.experiments import ablations, extended
from repro.experiments.figures import FIGURES
from repro.experiments.results import FigureResult

Tables = Mapping[str, FigureResult]

#: Every archived table's builder, keyed by its file stem.
TABLES: dict[str, Callable[[], FigureResult]] = {
    **FIGURES,
    "ablation_allocator_striping": ablations.allocator_striping,
    "ablation_coherence_baseline": ablations.coherence_baseline,
    "ablation_eviction": ablations.eviction,
    "ablation_hierarchical_sync": ablations.hierarchical_sync,
    "ablation_line_size": ablations.line_size,
    "ablation_local_sync": ablations.local_sync,
    "ablation_multi_writer": ablations.multi_writer,
    "ablation_prefetch": ablations.prefetch,
    "ablation_regc_finegrain": ablations.regc_finegrain,
    "ablation_scif": ablations.scif,
    "ext_hetero": extended.hetero_figure,
    "ext_multimic": extended.multi_coprocessor_figure,
    "ext_pipeline": extended.pipeline_figure,
}


@dataclass(frozen=True)
class Claim:
    """One checkable statement about one archived table."""

    table: str
    #: The paper's sentence, or the repo prediction and its DESIGN.md §6 row.
    statement: str
    #: Evaluates the claim on the built tables; returns (ok, detail).
    check: Callable[[Tables], tuple[bool, str]]
    #: The EXPERIMENTS.md known deviation this claim's FAIL is, if any.
    deviation: int | None = None

    def matches(self, ok: bool) -> bool:
        """True if verdict ``ok`` is the one this claim records."""
        return ok == (self.deviation is None)


CLAIMS: list[Claim] = []


def _claim(table: str, statement: str, deviation: int | None = None):
    def register(check):
        CLAIMS.append(Claim(table, statement, check, deviation))
        return check
    return register


# -- The paper's §III claims, one per figure ---------------------------------

@_claim("fig03", "the normalized compute time for Pthreads and Samhita are "
                 "very similar ... even for a relatively small amount of "
                 "computation (small M)")
def _fig03(figs: Tables) -> tuple[bool, str]:
    fr = figs["fig03"]
    worst = max(max(fr[f"smh, M={m}"].ys) for m in (1, 10, 100))
    gap = max(fr[f"smh, M={m}"].y_at(c) / fr[f"pth, M={m}"].y_at(c)
              for m in (1, 10, 100) for c in fr[f"pth, M={m}"].xs)
    one = fr["smh, M=100"].y_at(1)
    ok = worst < 1.6 and gap < 1.5 and abs(one - 1.0) < 0.1
    return ok, (f"worst smh normalized compute {worst:.2f}, "
                f"smh/pth in-node {gap:.2f}x, smh M=100 at 1 core {one:.2f}")


@_claim("fig04", "when the amount of compute performed is low the added "
                 "penalty ... due to false sharing and other overheads is "
                 "noticeable. However, as we increase the amount of compute "
                 "this cost is amortized.")
def _fig04(figs: Tables) -> tuple[bool, str]:
    m1, m100 = figs["fig04"]["smh, M=1"], figs["fig04"]["smh, M=100"]
    ok = m1.y_at(8) > 1.5 and all(m100.y_at(c) < m1.y_at(c) for c in (8, 32))
    return ok, (f"M=1 penalty {m1.y_at(8):.1f}x / {m1.y_at(32):.1f}x "
                f"amortized to {m100.y_at(8):.2f}x / {m100.y_at(32):.2f}x "
                f"at M=100 (8 / 32 cores)")


@_claim("fig05", "when the amount of computation performed is relatively "
                 "small there is a higher penalty compared to the global "
                 "allocation case. However, once again this cost can be "
                 "amortized.")
def _fig05(figs: Tables) -> tuple[bool, str]:
    fr = figs["fig05"]
    strided, m10, m100 = fr["smh, M=1"], fr["smh, M=10"], fr["smh, M=100"]
    local = figs["fig03"]["smh, M=1"].y_at(8)
    glob = figs["fig04"]["smh, M=1"].y_at(8)
    ok = (local < glob < strided.y_at(8)
          and strided.y_at(4) > 2.0 and m10.y_at(4) < strided.y_at(4)
          and m100.y_at(8) < strided.y_at(8))
    return ok, (f"M=1 at 8 cores: local {local:.1f}x < global {glob:.1f}x "
                f"< strided {strided.y_at(8):.1f}x; amortized to "
                f"{m100.y_at(8):.2f}x at M=100")


@_claim("fig06", "computation time increases with the amount of work and "
                 "amount of data ... However, compute time per thread does "
                 "not increase as the number of threads increases.")
def _fig06(figs: Tables) -> tuple[bool, str]:
    s1, s2, s4, s8 = (figs["fig06"][f"S = {S}"] for S in (1, 2, 4, 8))
    flat = max(s.y_at(32) / s.y_at(1) for s in (s1, s2, s4, s8))
    stacked = s8.y_at(1) / s1.y_at(1)
    ok = (flat < 1.25 and s8.y_at(16) < 1.25 * s8.y_at(1)
          and s1.y_at(4) < 1.2 * s1.y_at(1)
          and stacked > 4 and s8.y_at(1) > 3 * s2.y_at(1)
          and s4.y_at(1) > 2 * s1.y_at(1))
    return ok, (f"growth to 32 cores at most {flat:.2f}x; "
                f"S=8/S=1 = {stacked:.1f}x")


@_claim("fig07", "the compute time per thread does grow slowly as the "
                 "number of compute threads increases ... the penalty is not "
                 "significant")
def _fig07(figs: Tables) -> tuple[bool, str]:
    fr, strided = figs["fig07"], figs["fig08"]
    growth = [fr[f"S = {S}"].y_at(32) / fr[f"S = {S}"].y_at(1)
              for S in (1, 2, 4, 8)]
    s2 = fr["S = 2"].y_at(16) / fr["S = 2"].y_at(1)
    below = all(fr[f"S = {S}"].y_at(16) < strided[f"S = {S}"].y_at(16)
                for S in (2, 4))
    ok = all(1 < g < 25 for g in growth) and 1 < s2 < 25 and below
    return ok, (f"growth to 32 cores {min(growth):.1f}x-{max(growth):.1f}x; "
                f"below strided at 16 cores, S=2 and S=4: {below}")


@_claim("fig08", "a higher penalty incurred in the compute time. This "
                 "penalty increases as the amount of data increases.")
def _fig08(figs: Tables) -> tuple[bool, str]:
    s4 = figs["fig08"]["S = 4"]
    glob = figs["fig07"]["S = 4"].y_at(16)
    ok = (s4.y_at(8) > 1.5 * s4.y_at(1) and s4.y_at(16) > 2 * s4.y_at(1)
          and s4.y_at(32) > 2 * s4.y_at(1) and s4.y_at(16) > glob)
    return ok, (f"S=4 growth to 16 / 32 cores {s4.y_at(16) / s4.y_at(1):.1f}x "
                f"/ {s4.y_at(32) / s4.y_at(1):.1f}x; strided "
                f"{s4.y_at(16):.2e} vs global {glob:.2e} at 16")


@_claim("fig09", "as the size of the ordinary region grows, the compute time "
                 "increases as expected, and the penalty incurred ... "
                 "increases based on the amount of false sharing.")
def _fig09(figs: Tables) -> tuple[bool, str]:
    local, glob, stride = (figs["fig09"][a] for a in ("local", "global",
                                                        "stride"))
    ok = (all(s.y_at(8) > s.y_at(1) for s in (local, glob, stride))
          and local.y_at(8) > local.y_at(2)
          and local.y_at(8) < glob.y_at(8) < stride.y_at(8))
    return ok, (f"at S=8: local {local.y_at(8):.2e} < global "
                f"{glob.y_at(8):.2e} < stride {stride.y_at(8):.2e}")


@_claim("fig10", "when there is no false sharing (local allocation) the "
                 "increase in synchronization cost is hardly noticeable. "
                 "False sharing does have an impact ... [but] the increase in "
                 "synchronization cost is not dramatic.")
def _fig10(figs: Tables) -> tuple[bool, str]:
    fr = figs["fig10"]
    local = fr["local"].y_at(8) / fr["local"].y_at(1)
    stride = fr["stride"].y_at(8) / fr["stride"].y_at(1)
    ok = local < 1.3 and local < stride < 4.0
    return ok, f"sync growth with S: local {local:.2f}x, strided {stride:.2f}x"


@_claim("fig11", "Samhita does incur an increased cost for synchronization "
                 "... [but] Samhita's synchronization overhead is not "
                 "exceptionally high when compared to Pthreads, and the "
                 "increase with the number of threads is not dramatic.")
def _fig11(figs: Tables) -> tuple[bool, str]:
    fr = figs["fig11"]
    gaps = [fr[f"smh_{a}"].y_at(8) / fr[f"pth_{a}"].y_at(8)
            for a in ("local", "global", "stride")]
    gap4 = fr["smh_local"].y_at(4) / fr["pth_local"].y_at(4)
    local = fr["smh_local"]
    growth = {c: local.y_at(c) / local.y_at(1) for c in (4, 16, 32)}
    ok = (all(5 < g < 5000 for g in gaps) and 10 < gap4 < 5000
          and growth[4] < 8 and growth[16] < 32 and growth[32] < 64
          and fr["smh_stride"].y_at(16) > local.y_at(16))
    return ok, (f"smh/pth sync gap {min(gaps):.0f}x-{max(gaps):.0f}x at 8 "
                f"threads; growth to 32 threads {growth[32]:.1f}x")


@_claim("fig12", "the Samhita implementation shows good speedup up to 16 "
                 "processors. And within a node Samhita tracks the Pthread "
                 "implementation very well.")
def _fig12(figs: Tables) -> tuple[bool, str]:
    pth, smh = figs["fig12"]["pthreads"], figs["fig12"]["samhita"]
    ok = (pth.y_at(4) > 3.0 and pth.y_at(8) > 6.0
          and smh.y_at(2) > 0.8 * pth.y_at(2) and smh.y_at(4) > 2.0
          and smh.y_at(8) > 0.55 * pth.y_at(8)
          and smh.y_at(2) < smh.y_at(4) < smh.y_at(8) < smh.y_at(16) < 16
          and smh.y_at(32) < 1.3 * smh.y_at(16))
    return ok, (f"samhita speedup {smh.y_at(4):.1f}@4 {smh.y_at(8):.1f}@8 "
                f"{smh.y_at(16):.1f}@16 {smh.y_at(32):.1f}@32; pthreads "
                f"{pth.y_at(8):.1f}@8")


@_claim("fig13", "the Samhita implementation tracks the Pthread "
                 "implementation very closely within a node and continues to "
                 "scale very well up to 32 cores")
def _fig13(figs: Tables) -> tuple[bool, str]:
    pth, smh = figs["fig13"]["pthreads"], figs["fig13"]["samhita"]
    ok = (all(smh.y_at(c) > 0.9 * pth.y_at(c) for c in (2, 4, 8))
          and smh.y_at(4) > 3.0 and smh.y_at(16) > 12 and smh.y_at(32) > 20)
    return ok, (f"samhita {smh.y_at(8):.1f}@8 vs pth {pth.y_at(8):.1f}@8; "
                f"{smh.y_at(16):.1f}@16 {smh.y_at(32):.1f}@32")


# -- Ablations (DESIGN.md §6) -----------------------------------------------

@_claim("ablation_allocator_striping",
        "§II stripes large allocations across memory servers \"to avoid "
        "hot-spots\" (DESIGN.md §6, striping); repo prediction: 2 and 4 "
        "servers each beat 1 at 16 threads")
def _allocator_striping(t: Tables) -> tuple[bool, str]:
    compute = t["ablation_allocator_striping"]["compute (ms)"]
    one, two, four = compute.y_at(1), compute.y_at(2), compute.y_at(4)
    return two < one and four < one, (
        f"2 / 4 servers {two:.3f} / {four:.3f} ms vs 1 server {one:.3f} ms")


@_claim("ablation_coherence_baseline",
        "DESIGN.md §6, RegC vs IVY, kept because IVY is the sequentially "
        "consistent reference protocol kernels are run against; repo "
        "prediction: IVY's strided compute is over 10x RegC's, its local "
        "compute under 0.2x its strided, and RegC's local compute below "
        "IVY's")
def _coherence_baseline(t: Tables) -> tuple[bool, str]:
    fr = t["ablation_coherence_baseline"]
    local, strided = fr["local compute (ms)"], fr["strided compute (ms)"]
    ok = (strided.y_at("ivy") > 10 * strided.y_at("regc")
          and local.y_at("ivy") < 0.2 * strided.y_at("ivy")
          and local.y_at("regc") < local.y_at("ivy"))
    return ok, (f"strided ivy {strided.y_at('ivy'):.3f} vs regc "
                f"{strided.y_at('regc'):.3f} ms; local ivy "
                f"{local.y_at('ivy'):.3f} vs regc {local.y_at('regc'):.3f} ms")


@_claim("ablation_eviction",
        "§II biases eviction toward written pages (DESIGN.md §6, eviction); "
        "repo prediction: every policy evicts, and dirty-biased evicts at "
        "least as many dirty pages as clean-first")
def _eviction(t: Tables) -> tuple[bool, str]:
    fr = t["ablation_eviction"]
    dirty = fr["dirty evictions"]
    ok = (all(n > 0 for n in fr["evictions"].ys)
          and dirty.y_at("dirty-biased") >= dirty.y_at("clean-first"))
    return ok, (f"evictions {fr['evictions'].ys}; dirty: dirty-biased "
                f"{dirty.y_at('dirty-biased')}, clean-first "
                f"{dirty.y_at('clean-first')}")


@_claim("ablation_hierarchical_sync",
        "DESIGN.md §6, node-combining barriers, kept while `tree_barriers` "
        "runs in the sync_storm benchmark; repo prediction: the flat / "
        "combined sync ratio is over 0.9 at 8 threads and grows by 32")
def _hierarchical_sync(t: Tables) -> tuple[bool, str]:
    fr = t["ablation_hierarchical_sync"]
    gain = {p: fr["flat sync (ms)"].y_at(p) / fr["combined sync (ms)"].y_at(p)
            for p in (8, 32)}
    return (gain[32] > gain[8] > 0.9,
            f"flat / combined {gain[8]:.3f} at 8, {gain[32]:.3f} at 32 threads")


@_claim("ablation_line_size",
        "§II: \"cache lines of multiple pages\" to exploit spatial "
        "locality; repo prediction: 8-page lines halve the cold 2 MiB scan "
        "and move more strided page bytes than 1-page lines")
def _line_size(t: Tables) -> tuple[bool, str]:
    fr = t["ablation_line_size"]
    scan, pages = fr["2MiB-scan (ms)"], fr["strided page bytes"]
    ok = scan.y_at(8) < 0.5 * scan.y_at(1) and pages.y_at(8) > pages.y_at(1)
    return ok, (f"scan {scan.y_at(1):.3f} -> {scan.y_at(8):.3f} ms, strided "
                f"page bytes {pages.y_at(1):.0f} -> {pages.y_at(8):.0f} "
                f"(1 -> 8 pages per line)")


@_claim("ablation_local_sync",
        "§V: a single-node Samhita can skip the manager round-trip for "
        "synchronization (DESIGN.md §6, local sync); repo prediction: "
        "local sync is cheaper")
def _local_sync(t: Tables) -> tuple[bool, str]:
    sync = t["ablation_local_sync"]["sync (ms)"]
    local, managed = sync.y_at("local (§V)"), sync.y_at("manager-mediated")
    return local < managed, f"sync {local:.3f} ms local vs {managed:.3f} ms"


@_claim("ablation_multi_writer",
        "§II: a multiple-writer protocol of \"twins + diffs\" so "
        "concurrent writers of one page do not ping-pong it; repo "
        "prediction: single-writer write-back moves more barrier bytes and "
        "syncs longer")
def _multi_writer(t: Tables) -> tuple[bool, str]:
    fr = t["ablation_multi_writer"]
    diff, sync = fr["barrier-diff bytes"], fr["sync (ms)"]
    ok = (diff.y_at("single-writer") > diff.y_at("multiple-writer")
          and sync.y_at("single-writer") > sync.y_at("multiple-writer"))
    return ok, (f"barrier-diff bytes {diff.y_at('multiple-writer'):.0f} -> "
                f"{diff.y_at('single-writer'):.0f}, sync "
                f"{sync.y_at('multiple-writer'):.3f} -> "
                f"{sync.y_at('single-writer'):.3f} ms")


@_claim("ablation_prefetch",
        "§II: \"anticipatory prefetch of the adjacent cache line\" "
        "(DESIGN.md §6, prefetch); repo prediction: on Figure 7's 32-thread "
        "row at S=8, prefetch hits and halves compute")
def _prefetch(t: Tables) -> tuple[bool, str]:
    fr = t["ablation_prefetch"]
    on, off = fr["prefetch on (ms)"].y_at(8), fr["prefetch off (ms)"].y_at(8)
    hits = fr["prefetch hits"].y_at(8)
    return (on < 0.5 * off and hits > 0,
            f"S=8: on {on:.3f} ms vs off {off:.3f} ms, {hits} prefetch hits")


@_claim("ablation_regc_finegrain",
        "§II: consistency-region stores propagate as \"fine-grained "
        "object-level updates at release\"; repo prediction: page-grain "
        "consistency regions move over 2x the bytes and sync longer")
def _regc_finegrain(t: Tables) -> tuple[bool, str]:
    fr = t["ablation_regc_finegrain"]
    cr, sync = fr["CR-related bytes"], fr["sync (ms)"]
    ok = (cr.y_at("page-grain") > 2 * cr.y_at("fine-grain")
          and sync.y_at("page-grain") > sync.y_at("fine-grain"))
    return ok, (f"CR bytes {cr.y_at('fine-grain'):.0f} -> "
                f"{cr.y_at('page-grain'):.0f}, sync "
                f"{sync.y_at('fine-grain'):.3f} -> "
                f"{sync.y_at('page-grain'):.3f} ms")


@_claim("ablation_scif",
        "§V names SCIF over PCIe as the target communication layer "
        "(DESIGN.md §6, SCIF), kept because ext_hetero's recorded FAIL "
        "cannot gate SCIF alone; repo prediction: SCIF beats the verbs "
        "proxy")
def _scif(t: Tables) -> tuple[bool, str]:
    total = t["ablation_scif"]["compute + sync (ms)"]
    scif, proxy = total.y_at("SCIF direct"), total.y_at("verbs proxy")
    return scif < proxy, f"SCIF {scif:.3f} ms vs verbs proxy {proxy:.3f} ms"


# -- Extended experiments (DESIGN.md §6) ----------------------------------------

@_claim("ext_hetero",
        "§V targets SCIF over PCIe (DESIGN.md §6, Figure 1 machine); repo "
        "prediction: SCIF beats the verbs proxy at every thread count and "
        "is within 1.15x the IB-cluster stand-in at 32", deviation=5)
def _hetero(t: Tables) -> tuple[bool, str]:
    fr = t["ext_hetero"]
    scif, proxy, ib = fr["scif"], fr["verbs-proxy"], fr["ib-cluster"]
    beats = all(scif.y_at(c) < proxy.y_at(c) for c in fr.xs)
    return (beats and scif.y_at(32) <= 1.15 * ib.y_at(32),
            f"scif {scif.y_at(32):.4g} vs 1.15 x ib-cluster "
            f"{1.15 * ib.y_at(32):.4g} s at 32 threads; beats the verbs "
            f"proxy everywhere: {beats}")


@_claim("ext_multimic",
        "§V targets \"SCIF over PCIe\" on the Figure 1 node, host CPUs "
        "plus coprocessors; repo prediction: spreading 32 threads over two "
        "coprocessors' PCIe buses beats one")
def _multimic(t: Tables) -> tuple[bool, str]:
    fr = t["ext_multimic"]
    two, one = fr["2 mics (spread)"].y_at(32), fr["1 mic"].y_at(32)
    return two < one, f"{two:.4g} s on two buses vs {one:.4g} s on one"


@_claim("ext_pipeline",
        "§II: \"mutexes, condition variables, barriers, all mediated by "
        "the manager\"; repo prediction: the DSM condvar pipeline runs at 1 "
        "and 4 consumers within 500x of Pthreads throughput")
def _pipeline(t: Tables) -> tuple[bool, str]:
    fr = t["ext_pipeline"]
    pth, smh = fr["pthreads"], fr["samhita"]
    ok = all(smh.y_at(c) > 0 and pth.y_at(c) / smh.y_at(c) < 500
             for c in (1, 4))
    return ok, ", ".join(f"pth / smh {pth.y_at(c) / smh.y_at(c):.2f}x at {c}"
                         for c in (1, 4))


CLAIMS.sort(key=lambda claim: claim.table)


def check_claims(claims: list[Claim] | None = None
                 ) -> tuple[dict[str, FigureResult],
                            list[tuple[Claim, bool, str]]]:
    """Build every archived table once and evaluate each claim on them;
    returns the tables by file stem and one ``(claim, ok, detail)`` per
    claim."""
    tables = {name: TABLES[name]() for name in sorted(TABLES)}
    claims = claims if claims is not None else CLAIMS
    return tables, [(claim, *claim.check(tables)) for claim in claims]


def verify(claims: list[Claim] | None = None) -> bool:
    """Run and print every claim check; returns True if every verdict
    matches its claim's record: PASS, or FAIL on a recorded deviation."""
    _, verdicts = check_claims(claims)
    for claim, ok, detail in verdicts:
        print(f"[{'PASS' if ok else 'FAIL'}] {claim.table}: "
              f"{claim.statement}")
        print(f"       {detail}")
        if claim.deviation is not None:
            print(f"       known deviation {claim.deviation}"
                  + (" -- but it passes: delete the record" if ok else ""))
    differ = [claim.table for claim, ok, _ in verdicts
              if not claim.matches(ok)]
    print()
    print(f"all {len(verdicts)} verdicts match their records" if not differ
          else f"VERDICTS DIFFER FROM THEIR RECORDS: {', '.join(differ)}")
    return not differ
