"""Differential tests: out-of-core store vs. the in-RAM paths.

The shard store is a pure data-plane change — a sweep fed from
memory-mapped shards must be byte-identical to one fed from live
announcement records, sequential and through the mmap fan-out
(workers opening the shard by path).  A warm store must serve every
day as a hit without rebuilding the stream.
"""

import dataclasses
import datetime
import shutil

import pytest

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario

SCENARIO = small_scenario()
START = SCENARIO.bgp_start
END = START + datetime.timedelta(days=10)
DAYS = (END - START).days


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


def _result_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def _counters(result):
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.pairs_dropped_bogon,
    )


@pytest.fixture(scope="module")
def baseline(factory, as2org, tmp_path_factory):
    """The storeless reference output and counters."""
    base = tmp_path_factory.mktemp("baselines")
    result = _run(factory, as2org, jobs=1)
    return (
        _result_bytes(result, base / "storeless.jsonl"),
        _counters(result),
    )


class TestStoreBackedEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["seq", "pool"])
    def test_cold_store_matches_storeless(
        self, factory, as2org, baseline, tmp_path, jobs
    ):
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=jobs,
            store_dir=tmp_path / "store", metrics=metrics,
        )
        expected_bytes, expected_counters = baseline
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            expected_bytes
        assert _counters(result) == expected_counters
        assert result.runner_stats.store_dir == str(tmp_path / "store")
        # Cold: every day written exactly once, none served warm.
        counters = metrics.counters()
        assert counters.get("store.writes") == DAYS
        assert counters.get("store.hits") is None
        assert counters.get("store.malformed") is None

    @pytest.mark.parametrize("jobs", [1, 2], ids=["seq", "pool"])
    def test_warm_store_matches_and_hits_every_day(
        self, factory, as2org, baseline, tmp_path, jobs
    ):
        # Without its result shards, a warm store must re-map every
        # *input* shard (the path under test); the result-shard
        # short-circuit has its own test below.
        _run(factory, as2org, jobs=1, store_dir=tmp_path / "store")
        shutil.rmtree(tmp_path / "store" / "results")
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=jobs,
            store_dir=tmp_path / "store", metrics=metrics,
        )
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            baseline[0]
        counters = metrics.counters()
        assert counters.get("store.hits") == DAYS
        assert counters.get("store.misses") is None
        assert counters.get("store.writes") is None
        assert counters.get("store.result_misses") == DAYS

    @pytest.mark.parametrize("jobs", [1, 2], ids=["seq", "pool"])
    def test_warm_result_shards_skip_the_kernel(
        self, factory, as2org, baseline, tmp_path, jobs
    ):
        _run(factory, as2org, jobs=1, store_dir=tmp_path / "store")
        assert (tmp_path / "store" / "results").is_dir()
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=jobs,
            store_dir=tmp_path / "store", metrics=metrics,
        )
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            baseline[0]
        counters = metrics.counters()
        # Every day served straight from a mapped result shard: no
        # input-shard load, no kernel pass, nothing recomputed.
        assert counters.get("store.result_hits") == DAYS
        assert counters.get("store.hits") is None
        assert counters.get("store.writes") is None
        assert counters.get("runner.cache.hits") == DAYS

    def test_store_is_shared_across_kernels_and_configs(
        self, factory, as2org, tmp_path
    ):
        # Warm with the extended full sweep, then read every day back
        # under two other configs: the input shards' content address
        # excludes the config, while the result shards' includes it.
        _run(factory, as2org, jobs=1, store_dir=tmp_path / "store")
        metrics = MetricsRegistry()
        run_inference(
            factory, START, END,
            InferenceConfig.baseline(), as2org=as2org, jobs=1,
            store_dir=tmp_path / "store", metrics=metrics,
        )
        assert metrics.counter("store.hits") == DAYS
        assert metrics.counter("store.result_misses") == DAYS
        strict = MetricsRegistry()
        run_inference(
            factory, START, END,
            dataclasses.replace(
                InferenceConfig.extended(), visibility_threshold=0.9
            ),
            as2org=as2org, jobs=1,
            store_dir=tmp_path / "store", metrics=strict,
        )
        assert strict.counter("store.hits") == DAYS

    def test_store_composes_with_the_result_cache(
        self, factory, as2org, baseline, tmp_path
    ):
        # A baseline sweep leaves the input shards plus result shards
        # that the extended config cannot use; the extended sweep
        # after it maps the input shards and writes its own result
        # shards, and the one after that is served entirely by them.
        kwargs = dict(jobs=1, store_dir=tmp_path / "store")
        run_inference(
            factory, START, END, InferenceConfig.baseline(), **kwargs
        )
        results = tmp_path / "store" / "results"
        assert len(list(results.rglob("*.rpd"))) == DAYS
        full = MetricsRegistry()
        _run(factory, as2org, metrics=full, **kwargs)
        assert full.counter("store.hits") == DAYS
        assert full.counter("store.result_misses") == DAYS
        assert full.counter("store.result_writes") == DAYS
        assert len(list(results.rglob("*.rpd"))) == 2 * DAYS
        metrics = MetricsRegistry()
        result = _run(factory, as2org, metrics=metrics, **kwargs)
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            baseline[0]
        counters = metrics.counters()
        assert counters.get("runner.cache.hits") == DAYS
        assert counters.get("store.misses") is None
