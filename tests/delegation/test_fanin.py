"""Tests for the zero-copy result fan-in and per-/8 day sharding.

The contract: the shared-memory transport and ``day_shards > 1`` are
pure transport/scheduling changes — output bytes and attrition
counters are identical to the pickled fallback (what a worker returns
when it cannot get a segment) and to whole-day runs, with or without
the store — and no exit path (completion, worker crash, interrupt)
leaks a shared-memory segment or trips the resource tracker.
"""

import datetime
import os
import pathlib
import subprocess
import sys
import textwrap

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
        result.sanitize_stats.bogon_prefix,
    )


def _segments():
    """The fan-in segments currently named in /dev/shm."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("rpfi*")}


@pytest.fixture()
def no_segments(monkeypatch):
    """Workers cannot get a segment, as on a host without /dev/shm.

    Patched before the pool forks, so every worker inherits it: result
    chunks and delta seeds both take the pickled fallback.
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

    @pytest.mark.parametrize("day_shards", [2, 3, 7])
    def test_day_shards_match_whole_days(
        self, factory, as2org, pickle_baseline, tmp_path, day_shards
    ):
        result = _run(
            factory, as2org, jobs=2, day_shards=day_shards,
        )
        assert _daily_bytes(result, tmp_path / "out.jsonl") == \
            pickle_baseline[0]
        assert _counters(result) == pickle_baseline[1]

    def test_day_shards_compose_with_store_and_cache(
        self, factory, as2org, pickle_baseline, tmp_path
    ):
        kwargs = dict(jobs=2, day_shards=3, store_dir=tmp_path / "store")
        days = (END - START).days
        cold_metrics = MetricsRegistry()
        cold = _run(factory, as2org, metrics=cold_metrics, **kwargs)
        assert _daily_bytes(cold, tmp_path / "cold.jsonl") == \
            pickle_baseline[0]
        # Sharded days still land whole in the store: one input shard
        # and one merged result shard per day.
        assert cold_metrics.counter("store.writes") == days
        assert cold_metrics.counter("store.result_writes") == days
        metrics = MetricsRegistry()
        warm = _run(factory, as2org, metrics=metrics, **kwargs)
        assert _daily_bytes(warm, tmp_path / "warm.jsonl") == \
            pickle_baseline[0]
        assert _counters(warm) == pickle_baseline[1]
        # Warm days come off mapped result shards, not the kernel.
        assert metrics.counters().get("store.result_hits") == days

    def test_incremental_shm_seed_matches(
        self, factory, as2org, pickle_baseline, tmp_path
    ):
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=2, incremental=True, metrics=metrics,
        )
        assert _daily_bytes(result, tmp_path / "inc.jsonl") == \
            pickle_baseline[0]
        # The seed crossed via a segment, so nothing materialized.
        assert metrics.counters().get("pairtable.materialized", 0) == 0
        assert metrics.gauge("fanin.shm_kb") > 0

    def test_incremental_pickle_seed_materializes(
        self, factory, as2org, pickle_baseline, tmp_path, no_segments
    ):
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=2, incremental=True, metrics=metrics,
        )
        assert _daily_bytes(result, tmp_path / "inc.jsonl") == \
            pickle_baseline[0]
        # No segment for the seed: the table itself crossed pickled.
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

    def test_day_shards_must_be_positive(self, factory, as2org):
        with pytest.raises(ReproError, match="day_shards"):
            _run(factory, as2org, day_shards=0)

    def test_day_shards_exclude_incremental(self, factory, as2org):
        with pytest.raises(ReproError, match="incremental"):
            _run(factory, as2org, day_shards=2, incremental=True)


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
        _run(factory, as2org, jobs=2, day_shards=2)
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
                jobs=2, day_shards=2,
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
