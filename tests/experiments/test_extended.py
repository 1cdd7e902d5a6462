"""Tests for the extended (beyond-paper) experiments."""

import pytest

from repro.experiments.extended import (
    hetero_figure,
    multi_coprocessor_figure,
    pipeline_figure,
)
from repro.experiments.verification import TABLES


class TestHeteroFigure:
    @pytest.fixture(scope="class")
    def fr(self):
        return hetero_figure(core_counts=(2, 8))

    def test_three_series(self, fr):
        assert set(fr.series) == {"ib-cluster", "verbs-proxy", "scif"}

    def test_scif_beats_verbs_proxy_everywhere(self, fr):
        for cores in fr.xs:
            assert (fr.series["scif"].y_at(cores)
                    < fr.series["verbs-proxy"].y_at(cores))

    def test_direct_pcie_matches_the_cluster_standin(self, fr):
        """§V's premise: a direct SCIF layer brings the heterogeneous
        machine at least to parity with the IB-cluster experiment (its
        latency is lower; the single shared PCIe bus costs back the
        difference under many threads)."""
        assert fr.series["scif"].y_at(8) <= 1.1 * fr.series["ib-cluster"].y_at(8)
        # And the naive verbs-proxy port is clearly worse than both.
        assert (fr.series["verbs-proxy"].y_at(8)
                > 1.3 * fr.series["ib-cluster"].y_at(8))


class TestMultiCoprocessor:
    def test_second_bus_helps_at_high_thread_counts(self):
        fr = multi_coprocessor_figure(core_counts=(16,))
        assert fr.series["2 mics (spread)"].y_at(16) < fr.series["1 mic"].y_at(16)


class TestPipelineFigure:
    def test_throughput_positive_and_backends_present(self):
        fr = pipeline_figure(consumer_counts=(1, 3))
        for backend in ("pthreads", "samhita"):
            for _, items_per_s in fr.series[backend].points:
                assert items_per_s > 0

    def test_pthreads_throughput_higher(self):
        fr = pipeline_figure(consumer_counts=(3,))
        assert (fr.series["pthreads"].y_at(3)
                > fr.series["samhita"].y_at(3))


def test_registry():
    assert {name for name in TABLES if name.startswith("ext_")} == {
        "ext_hetero", "ext_multimic", "ext_pipeline"}
