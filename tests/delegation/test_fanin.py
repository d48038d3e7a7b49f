"""Tests for the zero-copy result fan-in.

The contract: the shared-memory transport is a pure transport change —
output bytes and attrition counters are identical to the pickled
fallback (what a worker returns when it cannot get a segment) and to
an in-process run — and no exit path (completion, worker crash,
interrupt) leaks a shared-memory segment or trips the resource
tracker.
"""

import dataclasses
import datetime
import os
import pathlib
import subprocess
import sys
import textwrap
import time
import tracemalloc

import pytest

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.delegation import runner
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario
from tests.delegation.fanin_probe import MAPS, FanInProbe

SCENARIO = small_scenario()
START = SCENARIO.bgp_start
END = START + datetime.timedelta(days=8)

SHM_DIR = pathlib.Path("/dev/shm")


@pytest.fixture(scope="module")
def factory():
    return WorldStreamFactory(SCENARIO)


@pytest.fixture(scope="module")
def as2org():
    return World(SCENARIO).as2org()


def _run(factory, as2org, **kwargs):
    return run_inference(
        factory, START, END,
        InferenceConfig.extended(), as2org=as2org, **kwargs
    )


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return pathlib.Path(path).read_bytes()


def _counters(result):
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.pairs_dropped_bogon,
    )


def _segments():
    """The fan-in segments currently named in /dev/shm."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("rpfi*")}


@pytest.fixture()
def no_segments(monkeypatch):
    """Workers cannot get a segment, as on a host without /dev/shm.

    Patched before the pool forks, so every worker inherits it: every
    result chunk takes the pickled fallback.
    """
    monkeypatch.setattr(
        runner, "_create_worker_segment", lambda size, prefix: None
    )


@pytest.fixture(scope="module")
def pickle_baseline(factory, as2org, tmp_path_factory):
    """A jobs=1 run: nothing crosses a process boundary at all."""
    base = tmp_path_factory.mktemp("fanin-baseline")
    result = _run(factory, as2org, jobs=1)
    return (
        _daily_bytes(result, base / "inline.jsonl"),
        _counters(result),
    )


class TestByteIdentity:
    def test_shm_matches_pickle(
        self, factory, as2org, pickle_baseline, tmp_path
    ):
        result = _run(factory, as2org, jobs=2)
        assert _daily_bytes(result, tmp_path / "out.jsonl") == \
            pickle_baseline[0]
        assert _counters(result) == pickle_baseline[1]

    def test_pickled_fallback_matches(
        self, factory, as2org, pickle_baseline, tmp_path, no_segments
    ):
        metrics = MetricsRegistry()
        result = _run(factory, as2org, jobs=2, metrics=metrics)
        assert _daily_bytes(result, tmp_path / "out.jsonl") == \
            pickle_baseline[0]
        assert _counters(result) == pickle_baseline[1]
        assert metrics.gauge("fanin.pickled_kb") > 0
        assert metrics.gauge("fanin.shm_kb") == 0


class TestTransportAccounting:
    def test_shm_run_reports_segment_bytes(self, factory, as2org):
        metrics = MetricsRegistry()
        _run(factory, as2org, jobs=2, metrics=metrics)
        gauges = metrics.gauges()
        assert gauges.get("fanin.shm_kb", 0) > 0
        assert gauges.get("fanin.pickled_kb") == 0
        assert metrics.counters().get("pairtable.materialized", 0) == 0

    def test_pickle_run_reports_pickled_bytes(
        self, factory, as2org, no_segments
    ):
        metrics = MetricsRegistry()
        _run(factory, as2org, jobs=2, metrics=metrics)
        gauges = metrics.gauges()
        assert gauges.get("fanin.shm_kb") == 0
        assert gauges.get("fanin.pickled_kb", 0) > 0


class TestValidation:
    def test_unknown_fanin_mode(self, factory, as2org):
        # There is one transport, so no mode can be selected.
        with pytest.raises(TypeError):
            _run(factory, as2org, fanin="pickle")


class _DyingStreamFactory:
    """Kills the worker process outright (breaks the pool)."""

    def __call__(self):
        os._exit(13)


class _InterruptingStreamFactory:
    """Simulates ^C landing in a worker mid-sweep."""

    def __call__(self):
        raise KeyboardInterrupt


class TestSegmentLifecycle:
    def test_no_segments_after_completion(self, factory, as2org):
        before = _segments()
        _run(factory, as2org, jobs=2)
        assert _segments() == before

    def test_no_segments_after_worker_crash(self, as2org):
        before = _segments()
        with pytest.raises(ReproError, match="worker failed"):
            run_inference(
                _DyingStreamFactory(), START, END,
                InferenceConfig.extended(), as2org=as2org,
                jobs=2,
            )
        assert _segments() == before

    def test_no_segments_after_interrupt(self, as2org):
        before = _segments()
        with pytest.raises(KeyboardInterrupt):
            run_inference(
                _InterruptingStreamFactory(), START, END,
                InferenceConfig.extended(), as2org=as2org,
                jobs=2,
            )
        assert _segments() == before

    def test_no_resource_tracker_warnings(self, tmp_path):
        # The whole point of starting the tracker before the fork and
        # unlinking on adoption: a full shm sweep in a fresh
        # interpreter must exit with a silent tracker.
        script = textwrap.dedent("""
            import datetime
            from repro.delegation import (
                InferenceConfig, WorldStreamFactory, run_inference,
            )
            from repro.simulation import World, small_scenario

            scenario = small_scenario()
            start = scenario.bgp_start
            end = start + datetime.timedelta(days=4)
            run_inference(
                WorldStreamFactory(scenario), start, end,
                InferenceConfig.extended(),
                as2org=World(scenario).as2org(),
                jobs=2,
            )
        """)
        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.skipif(
    not MAPS.exists() or not SHM_DIR.is_dir(),
    reason="needs /proc/self/maps and /dev/shm",
)
class TestNoBufferOutlivesItsChunk:
    """Every fan-in buffer is gone before rule (v) runs.

    Each chunk is folded the moment it arrives, so by the time
    ``fill_gaps`` starts the parent maps no fan-in segment, every
    parent-side segment close succeeds, and a pickled-fallback run holds
    no more heap than a shared-memory one.  Run over the whole small
    window, so the pickled chunks (~35 kB) stand well clear of the few
    kB by which two identical runs' heaps differ.
    """

    def test_fan_in_buffers_released_before_rule_v(
        self, factory, as2org, monkeypatch
    ):
        create_segment = runner._create_worker_segment

        def sweep(*, pickled):
            # Patched before the pool forks, like ``no_segments``.
            monkeypatch.setattr(
                runner, "_create_worker_segment",
                (lambda size, prefix: None) if pickled else create_segment,
            )
            metrics = MetricsRegistry()
            run_inference(
                factory, START, SCENARIO.bgp_end,
                InferenceConfig.extended(), as2org=as2org, jobs=2,
                metrics=metrics,
            )
            return probe.at_rule_v, metrics

        probe = FanInProbe(monkeypatch)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            # Warm both transports first: a first run allocates
            # caches that the runs compared below must not pay.
            sweep(pickled=False)
            sweep(pickled=True)
            probe.closes.clear()
            shm, shm_metrics = sweep(pickled=False)
            shm_closes = list(probe.closes)
            pickled, pickled_metrics = sweep(pickled=True)
        finally:
            if not was_tracing:
                tracemalloc.stop()

        assert shm["maps"] == []
        assert pickled["maps"] == []
        chunks = shm_metrics.counter("runner.chunks")
        assert chunks > 0 and shm_metrics.gauge("fanin.shm_kb") > 0
        assert [outcome for outcome in shm_closes if outcome != "ok"] == []
        assert shm_closes.count("ok") >= chunks
        pickled_kb = pickled_metrics.gauge("fanin.pickled_kb")
        assert pickled_kb > 0
        extra_kb = pickled["heap_kb"] - shm["heap_kb"]
        assert extra_kb < pickled_kb / 2, (
            f"the pickled run holds {extra_kb:.1f} kB more heap at rule "
            f"(v) than the shared-memory run ({pickled_kb} kB pickled)"
        )


#: How long the wrapper below holds back the chunk holding ``START``.
FIRST_CHUNK_DELAY = 1.0

_run_chunk = runner._worker_run_chunk


def _delay_first_chunk(tasks):
    """Worker entry point that finishes the first chunk last.

    Module level, so the pool can pickle it by name; installed on
    ``runner._worker_run_chunk``, which the parent looks up at submit
    time.
    """
    if tasks[0] == START:
        time.sleep(FIRST_CHUNK_DELAY)
    return _run_chunk(tasks)


def _prefixed(metrics, prefix):
    values = {**metrics.counters(), **metrics.gauges()}
    return {k: v for k, v in values.items() if k.startswith(prefix)}


class TestCompletionOrder:
    """Chunks are folded as they finish, not as they were submitted,
    and the fold order reaches no output."""

    def test_late_first_chunk_changes_nothing(
        self, factory, as2org, tmp_path, monkeypatch
    ):
        def sweep(jobs):
            metrics = MetricsRegistry()
            result = _run(factory, as2org, jobs=jobs, metrics=metrics)
            return result, metrics

        sequential, sequential_metrics = sweep(1)
        in_order, in_order_metrics = sweep(2)
        folded = []
        fold_encoded = runner._fold_encoded

        def record_fold(result, data):
            date = fold_encoded(result, data)
            folded.append(date)
            return date

        monkeypatch.setattr(runner, "_worker_run_chunk", _delay_first_chunk)
        monkeypatch.setattr(runner, "_fold_encoded", record_fold)
        late, late_metrics = sweep(2)

        # The held-back chunk was not the first one folded.
        assert folded[0] != START
        assert sorted(folded) == sequential.daily.dates()
        assert _daily_bytes(late, tmp_path / "late.jsonl") == _daily_bytes(
            sequential, tmp_path / "sequential.jsonl")
        assert _counters(late) == _counters(sequential)
        assert _prefixed(late_metrics, "pipeline.") == _prefixed(
            sequential_metrics, "pipeline.")
        # jobs=1 ships nothing, so the transport split is compared with
        # a jobs=2 run that folds in submission order.
        assert _prefixed(late_metrics, "fanin.") == _prefixed(
            in_order_metrics, "fanin.")
        assert _prefixed(late_metrics, "fanin.shm_kb")["fanin.shm_kb"] > 0
        stats = dataclasses.asdict(late.runner_stats)
        expected = dataclasses.asdict(sequential.runner_stats)
        for varying in ("jobs", "elapsed_seconds"):
            del stats[varying], expected[varying]
        assert stats == expected
        assert late.runner_stats.jobs == 2
