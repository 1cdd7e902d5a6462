"""Tests for rerunning paper figures under alternative configurations."""

import pytest

from repro.core import SamhitaConfig
from repro.experiments import figures


def test_fig11_under_hierarchical_sync_is_cheaper():
    flat = figures.fig11(pth_cores=(1,), smh_cores=(32,))
    combined = figures.fig11(pth_cores=(1,), smh_cores=(32,),
                             config=SamhitaConfig(tree_barriers=True))
    assert (combined["smh_local"].y_at(32)
            < flat["smh_local"].y_at(32))


def test_fig09_under_ivy_is_worse_for_strided():
    regc = figures.fig09(cores=8, s_values=(2,))
    ivy = figures.fig09(cores=8, s_values=(2,),
                        config=SamhitaConfig(coherence="ivy"))
    assert ivy["stride"].y_at(2) > 3 * regc["stride"].y_at(2)


def test_fig06_config_default_unchanged():
    default = figures.fig06(smh_cores=(4,), s_values=(2,))
    explicit = figures.fig06(smh_cores=(4,), s_values=(2,),
                             config=SamhitaConfig())
    assert default["S = 2"].y_at(4) == pytest.approx(
        explicit["S = 2"].y_at(4), rel=1e-12)
