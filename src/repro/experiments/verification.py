"""Reproduction verification: every paper claim as a pass/fail check.

Each claim quotes one §III sentence and checks it on the paper-scale
figures -- the cells ``benchmarks/results/fig*.txt`` archives.
:func:`check_claims` builds each of the 11 figures once and evaluates every
claim on them; ``python -m repro.experiments verify`` prints the verdicts
and ``campaign`` writes them with the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.experiments.figures import FIGURES
from repro.experiments.results import FigureResult

Figures = Mapping[str, FigureResult]


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper's evaluation."""

    figure: str
    #: The paper's sentence (EXPERIMENTS.md's "Paper:" lines).
    statement: str
    #: Evaluates the claim on the built figures; returns (ok, detail).
    check: Callable[[Figures], tuple[bool, str]]


CLAIMS: list[Claim] = []


def _claim(figure: str, statement: str):
    def register(check):
        CLAIMS.append(Claim(figure, statement, check))
        return check
    return register


@_claim("fig03", "the normalized compute time for Pthreads and Samhita are "
                 "very similar ... even for a relatively small amount of "
                 "computation (small M)")
def _fig03(figs: Figures) -> tuple[bool, str]:
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
def _fig04(figs: Figures) -> tuple[bool, str]:
    m1, m100 = figs["fig04"]["smh, M=1"], figs["fig04"]["smh, M=100"]
    ok = m1.y_at(8) > 1.5 and all(m100.y_at(c) < m1.y_at(c) for c in (8, 32))
    return ok, (f"M=1 penalty {m1.y_at(8):.1f}x / {m1.y_at(32):.1f}x "
                f"amortized to {m100.y_at(8):.2f}x / {m100.y_at(32):.2f}x "
                f"at M=100 (8 / 32 cores)")


@_claim("fig05", "when the amount of computation performed is relatively "
                 "small there is a higher penalty compared to the global "
                 "allocation case. However, once again this cost can be "
                 "amortized.")
def _fig05(figs: Figures) -> tuple[bool, str]:
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
def _fig06(figs: Figures) -> tuple[bool, str]:
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
def _fig07(figs: Figures) -> tuple[bool, str]:
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
def _fig08(figs: Figures) -> tuple[bool, str]:
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
def _fig09(figs: Figures) -> tuple[bool, str]:
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
def _fig10(figs: Figures) -> tuple[bool, str]:
    fr = figs["fig10"]
    local = fr["local"].y_at(8) / fr["local"].y_at(1)
    stride = fr["stride"].y_at(8) / fr["stride"].y_at(1)
    ok = local < 1.3 and local < stride < 4.0
    return ok, f"sync growth with S: local {local:.2f}x, strided {stride:.2f}x"


@_claim("fig11", "Samhita does incur an increased cost for synchronization "
                 "... [but] Samhita's synchronization overhead is not "
                 "exceptionally high when compared to Pthreads, and the "
                 "increase with the number of threads is not dramatic.")
def _fig11(figs: Figures) -> tuple[bool, str]:
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
def _fig12(figs: Figures) -> tuple[bool, str]:
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
def _fig13(figs: Figures) -> tuple[bool, str]:
    pth, smh = figs["fig13"]["pthreads"], figs["fig13"]["samhita"]
    ok = (all(smh.y_at(c) > 0.9 * pth.y_at(c) for c in (2, 4, 8))
          and smh.y_at(4) > 3.0 and smh.y_at(16) > 12 and smh.y_at(32) > 20)
    return ok, (f"samhita {smh.y_at(8):.1f}@8 vs pth {pth.y_at(8):.1f}@8; "
                f"{smh.y_at(16):.1f}@16 {smh.y_at(32):.1f}@32")


def check_claims(claims: list[Claim] | None = None
                 ) -> tuple[dict[str, FigureResult],
                            list[tuple[Claim, bool, str]]]:
    """Build every paper figure once, at paper scale, and evaluate each
    claim on them; returns the figures and one ``(claim, ok, detail)`` per
    claim."""
    figs = {name: build() for name, build in sorted(FIGURES.items())}
    claims = claims if claims is not None else CLAIMS
    return figs, [(claim, *claim.check(figs)) for claim in claims]


def verify(claims: list[Claim] | None = None) -> bool:
    """Run and print every claim check; returns True if all pass."""
    _, verdicts = check_claims(claims)
    for claim, ok, detail in verdicts:
        print(f"[{'PASS' if ok else 'FAIL'}] {claim.figure}: "
              f"{claim.statement}")
        print(f"       {detail}")
    all_ok = all(ok for _, ok, _ in verdicts)
    print()
    print("all paper claims reproduced" if all_ok
          else "SOME CLAIMS FAILED -- see above")
    return all_ok
