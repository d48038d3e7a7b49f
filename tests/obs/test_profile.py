"""Tests for opt-in per-span peak-memory profiling."""

import pickle

import pytest

from repro.obs import NULL, MetricsRegistry
from repro.obs.profile import MemoryProfiler


def _allocate_kb(kb: int) -> bytearray:
    return bytearray(kb * 1024)


class TestMemoryProfiler:
    def test_span_peak_sees_transient_allocation(self):
        profiler = MemoryProfiler()
        profiler.start()
        try:
            profiler.enter_span()
            blob = _allocate_kb(512)
            del blob
            peak = profiler.exit_span()
        finally:
            profiler.stop()
        assert peak >= 512 * 1024

    def test_parent_peak_covers_child(self):
        profiler = MemoryProfiler()
        profiler.start()
        try:
            profiler.enter_span()          # parent
            profiler.enter_span()          # child
            blob = _allocate_kb(256)
            del blob
            child_peak = profiler.exit_span()
            parent_peak = profiler.exit_span()
        finally:
            profiler.stop()
        assert child_peak >= 256 * 1024
        assert parent_peak >= child_peak

    def test_sibling_spans_are_independent(self):
        profiler = MemoryProfiler()
        profiler.start()
        try:
            profiler.enter_span()          # parent
            profiler.enter_span()
            blob = _allocate_kb(512)
            del blob
            big = profiler.exit_span()
            profiler.enter_span()
            small = profiler.exit_span()
            profiler.exit_span()
        finally:
            profiler.stop()
        # The second sibling must not inherit the first one's peak.
        assert small < big

    def test_stop_only_stops_own_tracing(self):
        import tracemalloc

        tracemalloc.start()
        try:
            profiler = MemoryProfiler()
            profiler.start()   # already tracing: not ours to stop
            profiler.stop()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class TestRegistryProfiling:
    @pytest.fixture(autouse=True)
    def _no_tracing_leak(self):
        # Profiling starts tracemalloc process-wide; leaving it on
        # would slow every test that runs after this class.
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        yield
        if not was_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()

    def test_enable_sets_profile_gauges(self):
        registry = MetricsRegistry()
        registry.enable_memory_profile()
        assert registry.memory_profiling
        with registry.span("stage"):
            blob = _allocate_kb(512)
            del blob
        gauge = registry.gauge("profile.stage.peak_kb")
        assert gauge is not None
        assert gauge >= 512

    def test_nested_spans_gauge_full_names(self):
        registry = MetricsRegistry()
        registry.enable_memory_profile()
        with registry.span("outer"):
            with registry.span("inner"):
                blob = _allocate_kb(256)
                del blob
        inner = registry.gauge("profile.outer.inner.peak_kb")
        outer = registry.gauge("profile.outer.peak_kb")
        assert inner is not None and outer is not None
        assert outer >= inner >= 256

    def test_disabled_registry_records_no_profile_gauges(self):
        registry = MetricsRegistry()
        with registry.span("stage"):
            pass
        assert not registry.memory_profiling
        assert registry.gauge("profile.stage.peak_kb") is None

    def test_null_registry_never_profiles(self):
        NULL.enable_memory_profile()
        with NULL.span("stage"):
            pass
        assert NULL.to_json()["gauges"] == {}

    def test_enable_is_idempotent(self):
        registry = MetricsRegistry()
        registry.enable_memory_profile()
        first = registry._mem_profiler
        registry.enable_memory_profile()
        assert registry._mem_profiler is first

    def test_gauges_merge_by_maximum(self):
        # Worker fan-in keeps the worst per-stage peak across the pool.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("profile.day.peak_kb", 100.0)
        b.set_gauge("profile.day.peak_kb", 900.0)
        a.merge(b)
        assert a.gauge("profile.day.peak_kb") == 900.0

    def test_profiler_not_pickled(self):
        registry = MetricsRegistry()
        registry.enable_memory_profile()
        with registry.span("stage"):
            blob = _allocate_kb(64)
            del blob
        clone = pickle.loads(pickle.dumps(registry))
        # Gauges travel; the process-local profiler does not.
        assert clone.gauge("profile.stage.peak_kb") == pytest.approx(
            registry.gauge("profile.stage.peak_kb")
        )
        assert not clone.memory_profiling


class TestDisableProfiling:
    def test_disable_stops_tracing_and_keeps_gauges(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        registry = MetricsRegistry()
        registry.enable_memory_profile()
        assert tracemalloc.is_tracing()
        with registry.span("stage"):
            blob = _allocate_kb(64)
            del blob
        registry.disable_memory_profile()
        assert not tracemalloc.is_tracing()
        assert not registry.memory_profiling
        assert registry.gauge("profile.stage.peak_kb") >= 64
        with registry.span("later"):
            pass
        assert registry.gauge("profile.later.peak_kb") is None

    def test_disable_leaves_foreign_tracing_on(self):
        import tracemalloc

        tracemalloc.start()
        try:
            registry = MetricsRegistry()
            registry.enable_memory_profile()
            registry.disable_memory_profile()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_disable_without_enable_is_a_no_op(self):
        import tracemalloc

        MetricsRegistry().disable_memory_profile()
        NULL.disable_memory_profile()
        assert not tracemalloc.is_tracing()

    def test_profiled_inference_leaves_no_tracing(self):
        import datetime
        import tracemalloc

        from repro.delegation import (
            InferenceConfig, WorldStreamFactory, run_inference,
        )
        from repro.simulation import World, small_scenario

        scenario = small_scenario()
        registry = MetricsRegistry()
        registry.enable_memory_profile()
        try:
            run_inference(
                WorldStreamFactory(scenario), scenario.bgp_start,
                scenario.bgp_start + datetime.timedelta(days=3),
                InferenceConfig.extended(),
                as2org=World(scenario).as2org(), metrics=registry,
            )
        finally:
            registry.disable_memory_profile()
        assert registry.gauges()
        assert not tracemalloc.is_tracing()
