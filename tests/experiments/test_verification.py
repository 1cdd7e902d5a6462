"""Tests for the claim checks and the archive they are checked on."""

import pathlib
import re

import pytest

from repro.experiments import verification
from repro.experiments.verification import CLAIMS, TABLES, Claim, verify

ROOT = pathlib.Path(__file__).resolve().parents[2]
ARCHIVE = ROOT / "benchmarks/results"


def test_one_claim_per_figure():
    tables = [c.table for c in CLAIMS]
    assert tables == sorted(TABLES)
    assert len(tables) == 34


def test_claims_have_statements():
    for claim in CLAIMS:
        assert claim.statement
        assert claim.table in TABLES
        if claim.table.startswith("fig"):
            assert claim.deviation is None, claim.table


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.table)
def test_claim_holds_at_paper_scale(campaign_dir, claim):
    """Every verdict is the claim's record: PASS, or FAIL on a stated
    deviation."""
    row, = [line for line in (campaign_dir / "REPORT.md").read_text()
            .splitlines() if line.startswith(f"| {claim.table} |")]
    status = ("PASS" if claim.deviation is None
              else f"**FAIL** (deviation {claim.deviation})")
    assert f"| {status} |" in row, row


@pytest.mark.parametrize("name", sorted(TABLES))
def test_archive_is_the_paper_scale_figure(campaign_dir, name):
    """``benchmarks/results/<name>.txt`` is the campaign's table byte for
    byte. A change that moves a table regenerates it in the same change:
    ``python -m repro.experiments campaign``, then copy ``campaign/*.txt``."""
    assert ((campaign_dir / f"{name}.txt").read_bytes()
            == (ARCHIVE / f"{name}.txt").read_bytes())


def test_known_deviations_are_the_recorded_claims():
    """EXPERIMENTS.md's "Known deviations" list names exactly the tables
    whose claims carry a ``deviation``, under the same numbers."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Known deviations", 1)[1]
    named = {(int(number), table) for number, table in re.findall(
        r"^(\d+)\. .*?\(claim `(\w+)`\)", section, re.M)}
    assert named == {(c.deviation, c.table) for c in CLAIMS
                     if c.deviation is not None}


def _always(ok, detail):
    return lambda tables: (ok, detail)


def test_verify_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(verification, "TABLES", {})
    holds = Claim("figXX", "always true", _always(True, "holds"))
    fails = Claim("figYY", "always false",
                  _always(False, "intentionally failing"))
    assert verify([holds, fails]) is False
    out = capsys.readouterr().out
    assert "[PASS] figXX: always true" in out
    assert "[FAIL] figYY: always false" in out
    assert "intentionally failing" in out
    assert "VERDICTS DIFFER FROM THEIR RECORDS: figYY" in out

    # A recorded deviation that passes must lose its record.
    fixed = Claim("ablation_x", "now true", _always(True, "3 < 4"),
                  deviation=5)
    assert verify([holds, fixed]) is False
    assert "delete the record" in capsys.readouterr().out

    # A recorded deviation that fails is the record: the run passes, and
    # the FAIL still prints its numbers.
    known = Claim("ext_y", "still false", _always(False, "4.000 vs 3.258"),
                  deviation=6)
    assert verify([holds, known]) is True
    out = capsys.readouterr().out
    assert "[FAIL] ext_y: still false" in out
    assert "4.000 vs 3.258" in out
    assert "known deviation 6" in out
    assert "all 2 verdicts match their records" in out
