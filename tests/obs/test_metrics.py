"""Unit tests for the unified metrics registry and its per-layer rows.

Includes the regression tests for :func:`repro.perf.diff_snapshots`:
layers present only in the newer snapshot must survive the diff, and a
mid-window ``reset()`` must clamp deltas at zero instead of going
negative.
"""

import pickle

import pytest

from repro import obs, perf
from repro.obs.metrics import (
    DEFAULT_BOUNDARIES,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    layer_rows,
)


class TestHistogram:
    def test_buckets_and_sidecars(self):
        hist = Histogram((1.0, 2.0))
        for value in (0.5, 1.5, 3.0, 0.2):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # <=1, <=2, overflow
        assert hist.count == 4
        assert hist.total == 5.2
        assert hist.min == 0.2
        assert hist.max == 3.0
        assert abs(hist.mean - 1.3) < 1e-12

    def test_boundary_value_lands_in_lower_bucket(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0]

    def test_json_round_trip(self):
        hist = Histogram()
        for value in (0.003, 0.7, 12.0):
            hist.observe(value)
        clone = Histogram.from_json(hist.to_json())
        assert clone.boundaries == DEFAULT_BOUNDARIES
        assert clone.counts == hist.counts
        assert clone.total == hist.total
        assert (clone.min, clone.max) == (hist.min, hist.max)

    def test_empty_histogram_serializes_zero_extremes(self):
        data = Histogram().to_json()
        assert data["min"] == 0.0 and data["max"] == 0.0


class TestHistogramQuantiles:
    """Bucket-derived p50/p95/p99 — the edge cases the ISSUE pins."""

    def test_empty_histogram_returns_zero(self):
        hist = Histogram((1.0, 2.0))
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) == 0.0

    def test_single_value_returns_that_value(self):
        hist = Histogram((1.0, 2.0))
        for _ in range(3):
            hist.observe(1.5)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert hist.quantile(q) == 1.5

    def test_single_bucket_interpolates_between_observed_extremes(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(1.2)
        hist.observe(1.8)
        # The bucket spans (1.0, 2.0] but the estimate never leaves the
        # observed range.
        assert hist.quantile(0.0) == 1.2
        assert hist.quantile(0.5) == 1.5
        assert hist.quantile(1.0) == 1.8

    def test_all_overflow_interpolates_up_to_observed_max(self):
        hist = Histogram((1.0, 2.0))
        for value in (10.0, 20.0, 30.0):
            hist.observe(value)
        assert hist.quantile(1.0) == 30.0  # the only honest upper bound
        assert hist.quantile(0.5) == 20.0  # min..max interpolation
        assert hist.quantile(0.0) == 10.0

    def test_multi_bucket_walks_cumulative_counts(self):
        hist = Histogram((1.0, 2.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.5
        assert hist.quantile(1.0) == 3.0
        # Below-first-boundary samples clamp the low edge to the min.
        assert hist.quantile(0.0) == 0.5

    def test_q_is_clamped_to_unit_interval(self):
        hist = Histogram((1.0,))
        hist.observe(0.5)
        hist.observe(2.0)
        assert hist.quantile(-3.0) == hist.quantile(0.0)
        assert hist.quantile(7.0) == hist.quantile(1.0)

    def test_quantiles_are_monotone_in_q(self):
        hist = Histogram()
        for i in range(50):
            hist.observe(0.001 * (i + 1) * 7 % 20.0)
        estimates = [hist.quantile(q / 20.0) for q in range(21)]
        assert estimates == sorted(estimates)
        assert hist.min <= estimates[0] and estimates[-1] <= hist.max

    def test_survives_json_round_trip(self):
        hist = Histogram()
        for value in (0.003, 0.07, 0.7, 12.0):
            hist.observe(value)
        clone = Histogram.from_json(hist.to_json())
        for q in (0.5, 0.95, 0.99):
            assert clone.quantile(q) == hist.quantile(q)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.gauge("g", 5.0)
        reg.gauge("g", 3.0)
        assert reg.counter("a") == 3
        assert reg.snapshot()["gauges"]["g"] == 3.0  # last write wins in-process

    def test_counters_prefix_filter(self):
        reg = MetricsRegistry()
        reg.inc("crawler.pages[control]")
        reg.inc("net.requests")
        assert set(reg.counters("crawler.")) == {"crawler.pages[control]"}

    def test_snapshot_is_picklable_and_detached(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.observe("h", 0.5)
        snap = pickle.loads(pickle.dumps(reg.snapshot()))
        reg.inc("c", 10)
        assert snap["counters"]["c"] == 2

    def test_merge_sums_counters_and_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        a.gauge("g", 10.0)
        b.inc("c", 3)
        b.inc("only_b")
        b.gauge("g", 7.0)
        a.merge(b.snapshot())
        assert a.counter("c") == 5
        assert a.counter("only_b") == 1
        assert a.snapshot()["gauges"]["g"] == 10.0  # max across merges

    def test_merge_sums_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.3)
        b.observe("h", 40.0)
        b.observe("h", 0.004)
        a.merge(b.snapshot())
        hist = a.histogram("h")
        assert hist.count == 3
        assert hist.min == 0.004
        assert hist.max == 40.0
        assert sum(hist.counts) == 3

    def test_merge_adopts_unknown_histogram(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("h", 1.0)
        a.merge(b.snapshot())
        assert a.histogram("h").count == 1

    def test_merge_boundary_mismatch_keeps_totals_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1.0, boundaries=(1.0,))
        b.observe("h", 2.0, boundaries=(5.0,))
        a.merge(b.snapshot())
        hist = a.histogram("h")
        assert hist.count == 2
        assert hist.total == 3.0


class TestDiffSnapshots:
    def test_counters_diff_and_drop_idle(self):
        reg = MetricsRegistry()
        reg.inc("a", 5)
        reg.inc("idle", 2)
        before = reg.snapshot()
        reg.inc("a", 3)
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["counters"] == {"a": 3}

    def test_new_names_survive(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.inc("fresh", 4)
        reg.observe("h", 0.1)
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["counters"]["fresh"] == 4
        assert delta["histograms"]["h"]["count"] == 1

    def test_mid_window_reset_clamps_to_zero(self):
        reg = MetricsRegistry()
        reg.inc("a", 10)
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.reset()
        reg.inc("a", 2)
        delta = diff_snapshots(before, reg.snapshot())
        # 2 - 10 would be negative; the window reports no activity instead.
        assert "a" not in delta["counters"]
        assert "h" not in delta["histograms"]

    def test_gauges_carry_after_level(self):
        reg = MetricsRegistry()
        reg.gauge("g", 100.0)
        before = reg.snapshot()
        reg.gauge("g", 40.0)
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["gauges"]["g"] == 40.0

    def test_delta_merges_back_exactly(self):
        """worker pattern: parent.merge(diff(before, after)) == exactly-once."""
        worker = MetricsRegistry()
        worker.inc("c", 7)  # residue of an earlier task on this worker
        before = worker.snapshot()
        worker.inc("c", 5)
        worker.observe("h", 0.2)
        parent = MetricsRegistry()
        parent.inc("c", 1)
        parent.merge(diff_snapshots(before, worker.snapshot()))
        assert parent.counter("c") == 6  # 1 + 5, never the residue


class TestPerfDiffRegressions:
    """repro.perf.diff_snapshots edge cases, on registry snapshots."""

    def test_layer_only_in_newer_snapshot_is_kept(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.inc("perf.hits[glyph_atlas]")
        reg.inc("perf.misses[glyph_atlas]")
        reg.inc("perf.miss_seconds[glyph_atlas]", 0.5)
        delta = perf.diff_snapshots(before, reg.snapshot())
        assert "glyph_atlas" in delta
        assert delta["glyph_atlas"]["hits"] == 1
        assert delta["glyph_atlas"]["misses"] == 1

    def test_mid_window_reset_clamps_to_zero(self):
        reg = MetricsRegistry()
        reg.inc("perf.hits[render_cache]", 2)
        reg.inc("perf.misses[render_cache]")
        reg.inc("perf.miss_seconds[render_cache]", 1.0)
        before = reg.snapshot()
        reg.reset()
        reg.inc("perf.misses[render_cache]", 2)
        reg.inc("perf.miss_seconds[render_cache]", 0.5)
        delta = perf.diff_snapshots(before, reg.snapshot())
        row = delta["render_cache"]
        assert row["hits"] == 0.0  # clamped, not -2
        assert row["misses"] == 1.0  # 2 - 1, post-reset activity above baseline
        assert row["miss_seconds"] == 0.0  # 0.5 - 1.0 clamped
        assert all(v >= 0.0 for v in row.values())

    def test_mid_window_reset_below_baseline_drops_layer(self):
        """Clamping can hide a whole layer; it must never go negative."""
        reg = MetricsRegistry()
        reg.inc("perf.hits[render_cache]")
        reg.inc("perf.misses[render_cache]")
        reg.inc("perf.miss_seconds[render_cache]", 1.0)
        before = reg.snapshot()
        reg.reset()
        reg.inc("perf.misses[render_cache]")  # still not above the old cumulative
        reg.inc("perf.miss_seconds[render_cache]", 0.1)
        delta = perf.diff_snapshots(before, reg.snapshot())
        assert delta == {}

    def test_idle_layers_dropped(self):
        reg = MetricsRegistry()
        reg.inc("perf.hits[encode]")
        snap = reg.snapshot()
        assert perf.diff_snapshots(snap, snap) == {}

    def test_perf_registry_is_the_metrics_registry(self):
        # One registry: a cache counter is an ordinary obs metric.
        assert perf.PERF is obs.METRICS


class TestLayerRows:
    def test_dotted_layer_parses(self):
        reg = MetricsRegistry()
        reg.inc("perf.hits[js.static.triage]", 3)
        reg.inc("perf.misses[js.static.triage]")
        reg.inc("perf.evictions[js.static.triage]", 2)
        reg.inc("perf.misses[js.compile]", 2)
        reg.inc("perf.miss_seconds[js.compile]", 0.5)
        rows = layer_rows(reg.snapshot())
        assert rows["js.static.triage"]["hits"] == 3
        assert rows["js.static.triage"]["evictions"] == 2
        assert rows["js.static.triage"]["hit_rate"] == 0.75
        assert rows["js.compile"]["miss_seconds"] == 0.5
        assert set(rows) == {"js.static.triage", "js.compile"}

    def test_saved_seconds_is_hits_times_mean_miss_cost(self):
        reg = MetricsRegistry()
        reg.inc("perf.hits[glyph_atlas]", 4)
        reg.inc("perf.misses[glyph_atlas]", 2)
        reg.inc("perf.miss_seconds[glyph_atlas]", 0.2)
        row = layer_rows(reg.snapshot())["glyph_atlas"]
        assert row["saved_seconds"] == pytest.approx(0.4)

    def test_non_perf_names_are_not_layers(self):
        reg = MetricsRegistry()
        reg.inc("crawler.pages[control]", 5)
        reg.inc("stage.cache.hits")
        reg.inc("render_cache.glyph_atlas.hits")  # a pre-registry ledger name
        reg.inc("perf.lookups[encode]")  # not a layer field
        reg.gauge("perf.hits[gauge]", 1.0)  # gauges are not layer counters
        assert layer_rows(reg.snapshot()) == {}
        assert layer_rows({}) == {}

    def test_cache_counts_into_the_registry(self):
        cache = perf.ByteBudgetLRU("test.lru", 100)
        before = obs.METRICS.snapshot()
        cache.put("a", "A", 60, seconds=0.25)
        cache.put("b", "B", 60)  # evicts "a"
        assert cache.get("b") == "B"
        assert cache.get("a") is None  # a miss is counted by its put
        row = perf.diff_snapshots(before, obs.METRICS.snapshot())["test.lru"]
        assert (row["hits"], row["misses"], row["evictions"]) == (1, 2, 1)
        assert row["miss_seconds"] == 0.25
