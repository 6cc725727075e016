"""Tests for tables, figures, stats helpers and the experiment registry."""

import pytest

from repro.analysis.stats import binomial_ci, mean, median, percentile, zipf_fit
from repro.config import StudyScale
from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.webgen import build_world


@pytest.fixture(scope="module")
def result():
    world = build_world(StudyScale(fraction=0.02, seed=99))
    return world.run_full_study(include_adblock_crawls=True, include_cross_machine=True)


class TestTables:
    def test_table1_structure(self, result):
        from repro.analysis.tables import table1

        rows, text = table1(result)
        assert len(rows) == 13
        assert rows[0]["vendor"] == "Akamai"
        assert rows[-1]["vendor"] == "GeeTest"
        assert "Total Sites" in text
        assert all(r["top"] >= 0 and r["tail"] >= 0 for r in rows)

    def test_table2_structure(self, result):
        from repro.analysis.tables import table2

        rows, text = table2(result.adblock_rows)
        assert [r["config"] for r in rows] == ["Control", "Adblock Plus", "UBlock Origin"]
        control = rows[0]
        for blocked in rows[1:]:
            assert blocked["canvases_top"] <= control["canvases_top"]
            assert blocked["sites_top"] <= control["sites_top"]
        assert "Control" in text

    def test_table3_structure(self, result):
        from repro.analysis.tables import table3

        rows, text = table3(result.signatures)
        by_vendor = {r["vendor"]: r for r in rows}
        assert by_vendor["FingerprintJS"]["demo"]
        assert by_vendor["Akamai"]["customer"] and not by_vendor["Akamai"]["demo"]
        assert by_vendor["Imperva"]["pattern"] == "<URL regex>"
        assert by_vendor["Imperva"]["canvases_harvested"] == 0
        assert "fpnpmcdn.net" in text

    def test_table4_structure(self, result):
        from repro.analysis.tables import table4

        rows, text = table4(result.blocklist_context)
        names = [r["blocklist"] for r in rows]
        assert names == ["EasyList", "EasyPrivacy", "Disconnect", "Any", "All"]
        any_row = rows[3]
        all_row = rows[4]
        assert all_row["top"] <= any_row["top"]
        assert 0 <= any_row["top_frac"] <= 1
        assert "Total" in text


class TestFigures:
    def test_figure1_data_sorted(self, result):
        from repro.analysis.figures import figure1_data

        data = figure1_data(result)
        tops = [d["top_sites"] for d in data]
        assert tops == sorted(tops, reverse=True)

    def test_figure1_render(self, result):
        from repro.analysis.figures import render_figure1

        text = render_figure1(result, n=10)
        assert "Figure 1" in text
        assert "#" in text

    def test_figure2_render(self, result):
        from repro.analysis.figures import render_figure2

        text = render_figure2(result)
        assert "Figure 2" in text

    def test_figure1_png_dogfooded(self, result, tmp_path):
        """Figure 1 rendered as a PNG by our own canvas substrate."""
        from repro.analysis.figures import figure1_png
        from repro.canvas.encode import png_decode

        path = tmp_path / "fig1.png"
        payload = figure1_png(result, path=str(path))
        assert path.read_bytes() == payload
        pixels = png_decode(payload)
        assert pixels.shape == (360, 640, 4)
        # Both series are drawn (blue top bars, orange tail bars).
        blue = ((pixels[..., 2] > 150) & (pixels[..., 0] < 100)).sum()
        orange = ((pixels[..., 0] > 200) & (pixels[..., 2] < 100)).sum()
        assert blue > 100 and orange > 20

    def test_report_renders(self, result):
        from repro.analysis.report import study_report

        text = study_report(result)
        assert "Table 1" in text
        assert "Paper vs measured" in text
        assert "prevalence (top)" in text

    def test_report_render_cache_section(self, result):
        """The timing section surfaces per-layer cache counters."""
        from repro.analysis.report import render_cache_table, study_report

        text = study_report(result)
        assert "Render-cache acceleration" in text
        table = render_cache_table(result)
        assert "hit rate" in table and "saved" in table
        assert "render_cache" in table
        assert result.perf_counters["render_cache"]["hits"] > 0

    def test_stage_timings_carry_perf_details(self, result):
        crawl_stages = [t for t in result.stage_timings if t.name == "crawl"]
        assert crawl_stages
        assert any("perf" in t.details for t in crawl_stages)


class TestExperiments:
    def test_all_experiments_render(self, result):
        for key in EXPERIMENTS:
            text = run_experiment(key, result)
            assert text.startswith("===")
            assert len(text) > 40, key

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_experiment("nope")

    def test_cross_machine_reported(self, result):
        text = run_experiment("cross_machine", result)
        assert "IDENTICAL" in text


class TestStats:
    def test_mean_median(self):
        assert mean([1, 2, 3]) == 2
        assert median([5, 1, 3]) == 3
        assert median([1, 2, 3, 4]) == 2.5
        assert mean([]) == 0.0

    def test_percentile(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 50) == 50
        assert percentile(values, 100) == 100
        with pytest.raises(ValueError):
            percentile(values, 101)

    def test_binomial_ci_contains_p(self):
        lo, hi = binomial_ci(127, 1000)
        assert lo < 0.127 < hi
        assert binomial_ci(0, 0) == (0.0, 0.0)

    def test_zipf_fit_positive_for_power_law(self):
        counts = [int(1000 / (r ** 1.2)) for r in range(1, 50)]
        alpha = zipf_fit(counts)
        assert 1.0 < alpha < 1.4


class TestComparisons:
    def test_every_comparison_has_sane_values(self, result):
        from repro.analysis.report import study_comparisons

        comparisons = study_comparisons(result)
        assert len(comparisons) > 30
        for c in comparisons:
            assert 0 <= c.paper_value <= 10, c.key
            assert 0 <= c.measured <= 70, c.key
            assert "paper" in c.line and "measured" in c.line

    def test_fraction_formatting(self):
        from repro.analysis.report import Comparison

        c = Comparison("x", 0.127, 0.125)
        assert c.fmt(0.127) == "12.7%"
        count = Comparison("y", 2067, 2027, kind="count")
        assert count.fmt(2067) == "2,067"
