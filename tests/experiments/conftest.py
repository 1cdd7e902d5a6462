"""The campaign, run once per test session and shared by the claim gate,
the archive gate and the report tests."""

import pytest

from repro.experiments.campaign import run_campaign


@pytest.fixture(scope="session")
def campaign_dir(tmp_path_factory):
    """All 34 archived tables built once on two workers, every claim
    checked, and each table written as ``<stem>.txt`` next to
    ``REPORT.md``."""
    out = tmp_path_factory.mktemp("campaign")
    run_campaign(out, echo=False, workers=2)
    return out
