"""Tests for the claim checks and the archive they are checked on."""

import pathlib

import pytest

from repro.experiments import verification
from repro.experiments.figures import FIGURES
from repro.experiments.verification import CLAIMS, Claim, verify

ARCHIVE = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/results"


def test_one_claim_per_figure():
    figures = [c.figure for c in CLAIMS]
    assert figures == sorted(FIGURES)


def test_claims_have_statements():
    for claim in CLAIMS:
        assert claim.statement
        assert claim.figure.startswith("fig")


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.figure)
def test_claim_holds_at_paper_scale(campaign_dir, claim):
    row, = [line for line in (campaign_dir / "REPORT.md").read_text()
            .splitlines() if line.startswith(f"| {claim.figure} |")]
    assert "| PASS |" in row, row


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_archive_is_the_paper_scale_figure(campaign_dir, name):
    """``benchmarks/results/figNN.txt`` is the campaign's table byte for
    byte. A change that moves a paper-scale figure regenerates it in the
    same change: ``python -m repro.experiments campaign``, then copy
    ``campaign/fig*.txt``."""
    assert ((campaign_dir / f"{name}.txt").read_bytes()
            == (ARCHIVE / f"{name}.txt").read_bytes())


def test_verify_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(verification, "FIGURES", {})
    claims = [Claim("figXX", "always true", lambda figs: (True, "holds")),
              Claim("figYY", "always false",
                    lambda figs: (False, "intentionally failing"))]
    assert verify(claims) is False
    out = capsys.readouterr().out
    assert "[PASS] figXX: always true" in out
    assert "[FAIL] figYY: always false" in out
    assert "SOME CLAIMS FAILED" in out
