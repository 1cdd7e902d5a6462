"""Tests for the figure registry, its rendering, and a few shape checks on
reduced sweeps.

The paper's shape claims are checked on the paper-scale figures by
``repro.experiments.verification.CLAIMS`` (``test_verification.py``); the
reduced-sweep tests below check the same relations on smaller cells.
"""

from repro.experiments import figures, format_figure

SMALL_CORES = (1, 4)
PTH_CORES = (1, 4)


class TestComputeFigures:
    def test_fig05_strided_penalty_amortized_by_M(self):
        fr = figures.fig05(pth_cores=PTH_CORES, smh_cores=SMALL_CORES,
                           m_values=(1, 10))
        penalty_m1 = fr["smh, M=1"].y_at(4)
        penalty_m10 = fr["smh, M=10"].y_at(4)
        assert penalty_m1 > 2.0          # noticeable penalty at low compute
        assert penalty_m10 < penalty_m1  # amortized with more compute

    def test_fig04_global_penalty_between_local_and_strided(self):
        # Compared at 8+ threads: with fewer, the global array spans so few
        # cache lines that the two shared patterns cost the same.
        kw = dict(pth_cores=(1,), smh_cores=(8,), m_values=(1,))
        local = figures.fig03(**kw)["smh, M=1"].y_at(8)
        glob = figures.fig04(**kw)["smh, M=1"].y_at(8)
        strided = figures.fig05(**kw)["smh, M=1"].y_at(8)
        assert local < glob < strided


class TestSyncFigure:
    def test_fig11_samhita_sync_far_above_pthreads(self):
        fr = figures.fig11(pth_cores=(1, 4), smh_cores=(1, 4))
        assert fr["smh_local"].y_at(4) > 10 * fr["pth_local"].y_at(4)

    def test_fig11_growth_with_threads_not_dramatic(self):
        fr = figures.fig11(pth_cores=(1, 4), smh_cores=(1, 4))
        growth = fr["smh_local"].y_at(4) / fr["smh_local"].y_at(1)
        assert growth < 8  # sub-linear-ish in thread count


class TestRegistryAndReport:
    def test_registry_has_all_eleven_figures(self):
        assert sorted(figures.FIGURES) == [
            "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
            "fig09", "fig10", "fig11", "fig12", "fig13",
        ]

    def test_format_figure_renders_table(self):
        fr = figures.fig06(smh_cores=(1, 2), s_values=(1,))
        text = format_figure(fr)
        assert "fig06" in text
        assert "S = 1" in text
        assert "compute time" in text

    def test_log_scale_figures_use_scientific_notation(self):
        fr = figures.fig11(pth_cores=(1,), smh_cores=(1,))
        text = format_figure(fr)
        assert "e-0" in text or "e+0" in text
