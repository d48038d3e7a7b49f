"""Unit tests for latency histograms, windows, and Prometheus output."""

import math
import pickle

import pytest

from repro.errors import TelemetryError
from repro.obs import MetricsRegistry
from repro.obs.telemetry import (
    BUCKET_BOUNDS,
    HISTOGRAM_BASE_SECONDS,
    HISTOGRAM_FINITE_BUCKETS,
    HistogramStats,
    SlidingWindow,
    bucket_index,
    bucket_upper_bound,
    mangle_metric_name,
    parse_prometheus_text,
    to_prometheus,
    write_prometheus,
)


class TestBuckets:
    def test_base_and_below_land_in_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(HISTOGRAM_BASE_SECONDS) == 0

    def test_le_semantics_at_exact_bounds(self):
        # A value exactly on a bound belongs to that bucket (le).
        for index in (0, 1, 7, HISTOGRAM_FINITE_BUCKETS - 1):
            assert bucket_index(BUCKET_BOUNDS[index]) == index

    def test_values_past_last_bound_overflow(self):
        beyond = BUCKET_BOUNDS[-1] * 2
        assert bucket_index(beyond) == HISTOGRAM_FINITE_BUCKETS

    def test_overflow_upper_bound_clamps_to_last_finite(self):
        assert bucket_upper_bound(HISTOGRAM_FINITE_BUCKETS) == (
            BUCKET_BOUNDS[-1]
        )

    def test_bounds_are_factor_two(self):
        for previous, current in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert current == pytest.approx(previous * 2.0)


class TestHistogramStats:
    def test_observe_and_quantiles(self):
        stats = HistogramStats()
        for _ in range(99):
            stats.observe(0.001)  # bucket of 1.024 ms
        stats.observe(0.1)  # one slow outlier
        assert stats.count == 100
        assert stats.quantile(0.50) == bucket_upper_bound(
            bucket_index(0.001)
        )
        # p99 rank is 99 -> still the fast bucket; p999 rank is 100.
        assert stats.quantile(0.99) == bucket_upper_bound(
            bucket_index(0.001)
        )
        assert stats.quantile(0.999) == bucket_upper_bound(
            bucket_index(0.1)
        )

    def test_empty_quantile_is_zero(self):
        assert HistogramStats().quantile(0.99) == 0.0

    def test_to_json_round_trip(self):
        stats = HistogramStats()
        stats.observe(0.002)
        stats.observe(5.0)
        payload = stats.to_json()
        assert payload["count"] == 2
        assert payload["p99_seconds"] == stats.quantile(0.99)
        clone = HistogramStats.from_json(payload)
        assert clone.buckets == stats.buckets
        assert clone.quantile(0.99) == stats.quantile(0.99)
        assert (clone.min_seconds, clone.max_seconds) == (0.002, 5.0)
        assert clone.to_json() == payload

    def test_pickle_round_trip(self):
        stats = HistogramStats()
        stats.observe(0.5)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.buckets == stats.buckets
        assert clone.count == 1

    def test_cumulative_buckets_ascend(self):
        stats = HistogramStats()
        for value in (0.001, 0.001, 1.0, 1e9):
            stats.observe(value)
        pairs = stats.cumulative_buckets()
        assert [count for _i, count in pairs] == [2, 3, 4]
        assert pairs[-1][0] == HISTOGRAM_FINITE_BUCKETS


class TestRegistryHistograms:
    def test_observe_feeds_same_named_histogram(self):
        registry = MetricsRegistry()
        registry.observe("stage", 0.004)
        registry.observe("stage", 0.004)
        assert registry.timer("stage").buckets == {bucket_index(0.004): 2}
        assert registry.timers().keys() == {"stage"}

    def test_span_records_histogram_for_free(self):
        registry = MetricsRegistry()
        with registry.span("stage"):
            pass
        assert sum(registry.timer("stage").buckets.values()) == 1

    def test_merge_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("t", 0.001)
        b.observe("t", 0.001)
        b.observe("t", 10.0)
        a.merge(b)
        merged = a.timer("t")
        assert merged.count == 3
        assert merged.buckets[bucket_index(0.001)] == 2

    def test_to_json_includes_histograms(self):
        # One section: each timer entry carries its distribution.
        registry = MetricsRegistry()
        registry.observe("t", 0.5)
        payload = registry.to_json()
        assert set(payload) == {"counters", "gauges", "timers"}
        timer = payload["timers"]["t"]
        assert timer["count"] == 1
        assert timer["buckets"] == {str(bucket_index(0.5)): 1}
        assert timer["p99_seconds"] == bucket_upper_bound(bucket_index(0.5))


class TestSlidingWindow:
    def test_rollup_counts_and_rates(self):
        window = SlidingWindow(span_seconds=300)
        now = 1000.0
        for i in range(30):
            window.record(now - i, 0.002, error=(i < 3))
        snap = window.snapshot(now, 60)
        assert snap["requests"] == 30
        assert snap["errors"] == 3
        assert snap["qps"] == pytest.approx(0.5)
        assert snap["errorRate"] == pytest.approx(0.1)
        assert snap["p99Seconds"] == pytest.approx(
            bucket_upper_bound(bucket_index(0.002)), rel=1e-6
        )

    def test_old_slots_age_out(self):
        window = SlidingWindow(span_seconds=300)
        window.record(100.0, 0.001)
        assert window.snapshot(100.0, 60)["requests"] == 1
        # 61 seconds later the observation left the 1 m window...
        assert window.snapshot(161.0, 60)["requests"] == 0
        # ...but is still inside the 5 m window.
        assert window.snapshot(161.0, 300)["requests"] == 1

    def test_ring_reuses_slots_after_a_full_revolution(self):
        window = SlidingWindow(span_seconds=10)
        window.record(5.0, 0.001)
        window.record(15.0, 0.001)  # same slot (15 % 10 == 5 % 10)
        snap = window.snapshot(15.0, 10)
        assert snap["requests"] == 1

    def test_empty_window_is_all_zero(self):
        snap = SlidingWindow().snapshot(1000.0, 60)
        assert snap["requests"] == 0
        assert snap["qps"] == 0.0
        assert snap["errorRate"] == 0.0
        assert snap["p99Seconds"] == 0.0


class TestMangling:
    def test_dots_become_underscores_with_prefix(self):
        assert mangle_metric_name("serve.whois.request") == (
            "repro_serve_whois_request"
        )

    def test_suffix_appends_last(self):
        assert mangle_metric_name("a.b", "_total") == "repro_a_b_total"

    def test_every_illegal_character_is_replaced(self):
        assert mangle_metric_name("a-b c/d.e") == "repro_a_b_c_d_e"


class TestToPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("serve.whois.requests", 5)
        registry.set_gauge("serve.connections.peak", 3.0)
        registry.observe("serve.whois.request", 0.002)
        registry.observe("serve.whois.request", 0.004)
        return registry

    def test_output_validates_strictly(self):
        text = to_prometheus(self._registry().to_json())
        families = parse_prometheus_text(text)
        assert families["repro_serve_whois_requests_total"]["type"] == (
            "counter"
        )
        assert families["repro_serve_connections_peak"]["type"] == "gauge"
        histogram = families["repro_serve_whois_request_seconds"]
        assert histogram["type"] == "histogram"

    def test_histogram_carries_inf_sum_count(self):
        text = to_prometheus(self._registry().to_json())
        assert 'repro_serve_whois_request_seconds_bucket{le="+Inf"} 2' in (
            text
        )
        assert "repro_serve_whois_request_seconds_count 2" in text
        assert "repro_serve_whois_request_seconds_sum" in text

    def test_colliding_names_merge_instead_of_duplicating(self):
        registry = MetricsRegistry()
        registry.inc("a.b", 1)
        registry.inc("a_b", 2)  # mangles to the same series
        text = to_prometheus(registry.to_json())
        samples = [
            line for line in text.splitlines()
            if line.startswith("repro_a_b_total ")
        ]
        assert len(samples) == 1
        families = parse_prometheus_text(text)
        assert families["repro_a_b_total"]["samples"][
            ("repro_a_b_total", ())
        ] == 3.0

    def test_write_prometheus_writes_the_file(self, tmp_path):
        target = tmp_path / "metrics.prom"
        write_prometheus(self._registry(), target)
        parse_prometheus_text(target.read_text(encoding="utf-8"))


class TestStrictParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(TelemetryError, match="no # TYPE"):
            parse_prometheus_text("repro_x_total 1\n")

    def test_rejects_duplicate_series(self):
        text = (
            "# TYPE repro_x_total counter\n"
            "repro_x_total 1\n"
            "repro_x_total 2\n"
        )
        with pytest.raises(TelemetryError, match="duplicate series"):
            parse_prometheus_text(text)

    def test_rejects_duplicate_type_declaration(self):
        text = (
            "# TYPE repro_x_total counter\n"
            "# TYPE repro_x_total counter\n"
        )
        with pytest.raises(TelemetryError, match="duplicate TYPE"):
            parse_prometheus_text(text)

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE repro_t_seconds histogram\n"
            'repro_t_seconds_bucket{le="0.001"} 5\n'
            'repro_t_seconds_bucket{le="0.002"} 3\n'
            'repro_t_seconds_bucket{le="+Inf"} 5\n'
            "repro_t_seconds_sum 0.01\n"
            "repro_t_seconds_count 5\n"
        )
        with pytest.raises(TelemetryError, match="not cumulative"):
            parse_prometheus_text(text)

    def test_rejects_histogram_missing_inf(self):
        text = (
            "# TYPE repro_t_seconds histogram\n"
            'repro_t_seconds_bucket{le="0.001"} 5\n'
            "repro_t_seconds_sum 0.01\n"
            "repro_t_seconds_count 5\n"
        )
        with pytest.raises(TelemetryError, match=r"\+Inf"):
            parse_prometheus_text(text)

    def test_rejects_inf_bucket_disagreeing_with_count(self):
        text = (
            "# TYPE repro_t_seconds histogram\n"
            'repro_t_seconds_bucket{le="+Inf"} 4\n'
            "repro_t_seconds_sum 0.01\n"
            "repro_t_seconds_count 5\n"
        )
        with pytest.raises(TelemetryError, match="disagrees"):
            parse_prometheus_text(text)

    def test_rejects_histogram_missing_sum_or_count(self):
        text = (
            "# TYPE repro_t_seconds histogram\n"
            'repro_t_seconds_bucket{le="+Inf"} 4\n'
        )
        with pytest.raises(TelemetryError, match="missing _sum"):
            parse_prometheus_text(text)

    def test_rejects_unparseable_sample(self):
        text = "# TYPE repro_x gauge\nrepro_x one two three\n"
        with pytest.raises(TelemetryError, match="unparseable"):
            parse_prometheus_text(text)

    def test_parses_inf_values(self):
        text = "# TYPE repro_g gauge\nrepro_g +Inf\n"
        families = parse_prometheus_text(text)
        assert families["repro_g"]["samples"][("repro_g", ())] == (
            math.inf
        )
