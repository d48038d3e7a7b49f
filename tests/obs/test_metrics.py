"""Unit tests for the metrics registry, spans, and the no-op default."""

import json
import pickle
import time

import pytest

from repro.obs import NULL, HistogramStats, MetricsRegistry, NullRegistry


class TestCounters:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a")
        assert registry.counter("a") == 2

    def test_inc_amount(self):
        registry = MetricsRegistry()
        registry.inc("a", 41)
        registry.inc("a", 1)
        assert registry.counter("a") == 42

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0

    def test_counters_view_is_a_copy(self):
        registry = MetricsRegistry()
        registry.inc("a")
        view = registry.counters()
        view["a"] = 99
        assert registry.counter("a") == 1


class TestGauges:
    def test_set_and_read(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3.0)
        assert registry.gauge("depth") == 3.0

    def test_keeps_maximum(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3.0)
        registry.set_gauge("depth", 1.0)
        registry.set_gauge("depth", 7.0)
        assert registry.gauge("depth") == 7.0

    def test_missing_gauge_is_none(self):
        assert MetricsRegistry().gauge("nope") is None


class TestTimers:
    def test_observe_accumulates(self):
        registry = MetricsRegistry()
        registry.observe("t", 1.0)
        registry.observe("t", 3.0)
        stats = registry.timer("t")
        assert stats.count == 2
        assert stats.total_seconds == pytest.approx(4.0)
        assert stats.min_seconds == pytest.approx(1.0)
        assert stats.max_seconds == pytest.approx(3.0)
        assert stats.mean_seconds == pytest.approx(2.0)

    def test_missing_timer_is_empty(self):
        stats = MetricsRegistry().timer("nope")
        assert isinstance(stats, HistogramStats)
        assert stats.count == 0
        assert stats.mean_seconds == 0.0

    def test_to_json_zeroes_min_when_empty(self):
        payload = HistogramStats().to_json()
        assert payload["min_seconds"] == 0.0
        assert payload["max_seconds"] == 0.0
        json.dumps(payload, allow_nan=False)  # never Infinity


class TestSpans:
    def test_span_records_wall_clock(self):
        registry = MetricsRegistry()
        with registry.span("stage"):
            time.sleep(0.01)
        stats = registry.timer("stage")
        assert stats.count == 1
        assert stats.total_seconds >= 0.005

    def test_spans_nest_with_dotted_names(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
            with registry.span("inner"):
                pass
        assert registry.timer("outer").count == 1
        assert registry.timer("outer.inner").count == 2
        # The stack unwound completely.
        with registry.span("after"):
            pass
        assert registry.timer("after").count == 1

    def test_span_survives_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("boom")
        assert registry.timer("boom").count == 1
        # Stack is clean afterwards: a new span is top-level again.
        with registry.span("next"):
            pass
        assert registry.timer("next").count == 1

    def test_failed_span_counts_failure(self):
        """A span exited by an exception marks itself failed.

        Previously a raising block was indistinguishable from a
        success in the timers — a stage that died early even *looked
        faster*.  The ``<name>.failed`` counter disambiguates.
        """
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.span("stage"):
                raise ValueError("nope")
        assert registry.counter("stage.failed") == 1

    def test_successful_span_has_no_failure_counter(self):
        registry = MetricsRegistry()
        with registry.span("stage"):
            pass
        assert registry.counter("stage.failed") == 0
        assert "stage.failed" not in registry.counters()

    def test_nested_failure_marks_both_levels(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                with registry.span("inner"):
                    raise RuntimeError("boom")
        assert registry.counter("outer.inner.failed") == 1
        # The exception also propagated through the outer span.
        assert registry.counter("outer.failed") == 1

    def test_mismatched_exit_records_counter(self):
        """Out-of-order span exits are counted, not silently skipped.

        Previously an overlapping exit left the stack untouched and
        said nothing — corrupted nesting (every descendant span
        mis-prefixed from then on) was invisible.  The counter makes
        it gate-able in manifests and ``history check``.
        """
        registry = MetricsRegistry()
        outer = registry.span("outer").__enter__()
        inner = registry.span("inner").__enter__()
        outer.__exit__(None, None, None)  # wrong order: inner on top
        inner.__exit__(None, None, None)
        assert registry.counter("spans.mismatched") == 1
        # Both timers still recorded their wall clock.
        assert registry.timer("outer").count == 1
        assert registry.timer("outer.inner").count == 1

    def test_clean_nesting_records_no_mismatch(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        assert "spans.mismatched" not in registry.counters()


class TestMerge:
    def test_merge_returns_self_and_sums(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.inc("only_b", 5)
        b.set_gauge("g", 2.0)
        a.set_gauge("g", 3.0)
        b.observe("t", 1.0)
        a.observe("t", 2.0)
        merged = a.merge(b)
        assert merged is a
        assert a.counter("c") == 3
        assert a.counter("only_b") == 5
        assert a.gauge("g") == 3.0
        stats = a.timer("t")
        assert stats.count == 2
        assert stats.total_seconds == pytest.approx(3.0)

    def test_merge_empty_is_identity(self):
        a = MetricsRegistry()
        a.inc("c", 7)
        a.observe("t", 1.5)
        before = a.to_json()
        a.merge(MetricsRegistry())
        assert a.to_json() == before

    def test_merge_into_empty_timer_does_not_leak_inf(self):
        """Merging into a count==0 timer takes the other side's min/max.

        The empty timer's ``min_seconds = inf`` sentinel must lose the
        ``min()`` during merge and never reach ``to_json`` (it would
        serialize as the non-standard JSON ``Infinity``).
        """
        empty, full = HistogramStats(), HistogramStats()
        full.observe(2.0)
        full.observe(4.0)
        empty.merge(full)
        assert empty.count == 2
        assert empty.min_seconds == pytest.approx(2.0)
        assert empty.max_seconds == pytest.approx(4.0)
        payload = empty.to_json()
        assert payload["min_seconds"] == pytest.approx(2.0)
        json.dumps(payload, allow_nan=False)

    def test_merge_from_empty_timer_is_identity(self):
        full = HistogramStats()
        full.observe(1.0)
        before = full.to_json()
        full.merge(HistogramStats())
        assert full.to_json() == before
        json.dumps(full.to_json(), allow_nan=False)

    def test_registry_merge_never_serializes_infinity(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("t", 0.5)
        a.merge(b)  # "t" is created empty in a, then merged into
        json.dumps(a.to_json(), allow_nan=False)
        assert a.timer("t").min_seconds == pytest.approx(0.5)


class TestPickling:
    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.set_gauge("g", 1.0)
        registry.observe("t", 0.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.to_json() == registry.to_json()

    def test_span_stack_not_pickled(self):
        registry = MetricsRegistry()
        span = registry.span("open")
        span.__enter__()
        clone = pickle.loads(pickle.dumps(registry))
        # The clone starts with a clean stack: spans are process-local.
        with clone.span("top"):
            pass
        assert clone.timer("top").count == 1
        span.__exit__(None, None, None)


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullRegistry()
        registry.inc("c", 10)
        registry.set_gauge("g", 1.0)
        registry.observe("t", 1.0)
        with registry.span("stage"):
            pass
        assert registry.to_json() == {
            "counters": {}, "gauges": {}, "timers": {},
        }

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled is True
        assert NULL.enabled is False

    def test_merge_is_noop(self):
        other = MetricsRegistry()
        other.inc("c")
        assert NULL.merge(other).to_json()["counters"] == {}

    def test_span_is_reusable_singleton(self):
        assert NULL.span("a") is NULL.span("b")
