"""Tests for the ASCII chart renderer."""

from repro.experiments import FigureResult, ascii_chart


def make_figure(log=False):
    fr = FigureResult("figX", "Test figure", "cores", "seconds",
                      meta={"log_scale": log})
    a = fr.new_series("alpha")
    a.add(1, 1.0)
    a.add(2, 2.0)
    a.add(4, 4.0)
    b = fr.new_series("beta")
    b.add(1, 4.0)
    b.add(4, 1.0)
    return fr


class TestAsciiChart:
    def test_contains_title_axes_and_legend(self):
        text = ascii_chart(make_figure())
        assert "figX: Test figure" in text
        assert "cores" in text
        assert "seconds" in text
        assert "o alpha" in text
        assert "x beta" in text

    def test_all_markers_plotted(self):
        text = ascii_chart(make_figure())
        assert text.count("o") >= 3  # alpha's points (legend adds one)
        assert "x" in text

    def test_dimensions_respected(self):
        text = ascii_chart(make_figure(), width=30, height=8)
        chart_rows = [l for l in text.splitlines() if l.endswith("|")]
        assert len(chart_rows) == 8
        assert all(len(r.split("|")[1]) == 30 for r in chart_rows)

    def test_log_scale_from_meta(self):
        text = ascii_chart(make_figure(log=True))
        assert "[log]" in text
        assert "1e+" in text or "1e-" in text

    def test_monotone_series_renders_monotone(self):
        fr = FigureResult("figY", "mono", "x", "y")
        s = fr.new_series("s")
        for x in range(1, 6):
            s.add(x, float(x))
        text = ascii_chart(fr, width=40, height=10)
        rows = [l.split("|")[1] for l in text.splitlines() if l.endswith("|")]
        cols = [row.index("o") for row in rows if "o" in row]
        # Top row is the largest y (largest x): columns descend going down.
        assert cols == sorted(cols, reverse=True)

    def test_categorical_x_plotted_at_column_index(self):
        fr = FigureResult("figC", "policies", "policy", "ms")
        s = fr.new_series("s")
        s.add("lru", 1.0)
        s.add("clean-first", 2.0)
        rows = [l.split("|")[1] for l in ascii_chart(fr, width=20, height=5)
                .splitlines() if l.endswith("|")]
        # Columns sort as clean-first (0, the larger y), then lru (1).
        assert rows[0].index("o") == 0
        assert rows[-1].index("o") == 19

    def test_empty_figure_handled(self):
        fr = FigureResult("figZ", "empty", "x", "y")
        assert "(no data)" in ascii_chart(fr)

    def test_zero_values_on_log_scale_skipped(self):
        fr = FigureResult("figW", "zeros", "x", "y", meta={"log_scale": True})
        s = fr.new_series("s")
        s.add(1, 0.0)
        s.add(2, 1.0)
        text = ascii_chart(fr)  # must not crash on log(0)
        assert "figW" in text
