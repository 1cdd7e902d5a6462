"""Tests for the one-command campaign report."""

from repro.experiments.verification import TABLES


def test_campaign_writes_report_and_tables(campaign_dir):
    report = campaign_dir / "REPORT.md"
    text = report.read_text()
    assert "# Reproduction campaign report" in text
    for name in TABLES:
        assert f"| {name} |" in text
        assert f"### {name}" in text
        assert (campaign_dir / f"{name}.txt").exists()


def test_campaign_tables_match_figure_format(campaign_dir):
    table = (campaign_dir / "fig06.txt").read_text()
    assert table.startswith("# fig06")
    assert "S = " in table


def test_campaign_reports_wall_time(campaign_dir):
    assert "Campaign wall time" in (campaign_dir / "REPORT.md").read_text()
