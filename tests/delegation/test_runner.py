"""Tests for the parallel inference runner.

The contract under test: the runner's output is byte-identical to the
sequential pipeline, the result-shard keys follow the configuration
(hits when only step (v) changes, misses when steps (i)-(iv) change),
and worker failures surface as :class:`ReproError` instead of hanging.
"""

import dataclasses
import datetime
import json
import os
import pathlib

import pytest

from repro.delegation import (
    ArchiveStreamFactory,
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.delegation.consistency import ConsistencyRule
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario

D = datetime.date

SCENARIO = small_scenario()
START = SCENARIO.bgp_start
END = START + datetime.timedelta(days=15)


@pytest.fixture(scope="module")
def world():
    return World(SCENARIO)


@pytest.fixture(scope="module")
def as2org(world):
    return world.as2org()


@pytest.fixture(scope="module")
def sequential(world, as2org):
    inference = DelegationInference(InferenceConfig.extended(), as2org)
    return inference.infer_range(world.stream(), START, END)


class _ExplodingStreamFactory:
    """Raises inside the worker while building its stream."""

    def __call__(self):
        raise RuntimeError("injected stream failure")


class _DyingStreamFactory:
    """Kills the worker process outright (breaks the pool)."""

    def __call__(self):
        os._exit(13)


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return pathlib.Path(path).read_bytes()


class TestEquivalence:
    def test_parallel_is_byte_identical_to_sequential(
        self, sequential, as2org, tmp_path
    ):
        parallel = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=2,
        )
        assert _daily_bytes(parallel, tmp_path / "par.jsonl") == \
            _daily_bytes(sequential, tmp_path / "seq.jsonl")
        assert parallel.observation_dates == sequential.observation_dates

    def test_counters_match_sequential(self, sequential, as2org):
        parallel = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=2,
        )
        assert parallel.pairs_seen == sequential.pairs_seen
        assert (parallel.pairs_dropped_visibility
                == sequential.pairs_dropped_visibility)
        assert (parallel.pairs_dropped_origin
                == sequential.pairs_dropped_origin)
        assert (parallel.delegations_dropped_same_org
                == sequential.delegations_dropped_same_org)
        assert (parallel.pairs_dropped_bogon
                == sequential.pairs_dropped_bogon)

    def test_in_process_path_matches(self, sequential, as2org, tmp_path):
        # jobs=1 never forks, so unpicklable factories are fine here.
        single = run_inference(
            lambda: World(SCENARIO).stream(), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=1,
        )
        assert _daily_bytes(single, tmp_path / "one.jsonl") == \
            _daily_bytes(sequential, tmp_path / "seq.jsonl")

    def test_step_days_grid(self, as2org):
        result = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org,
            jobs=1, step_days=7,
        )
        expected = [START + datetime.timedelta(days=7 * i)
                    for i in range(3)]
        assert result.observation_dates == expected

    def test_runner_stats_attached(self, as2org):
        result = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=2,
        )
        stats = result.runner_stats
        assert stats.jobs == 2
        assert stats.days_total == 15
        assert stats.days_computed == 15
        assert stats.days_from_cache == 0
        assert stats.store_dir is None


class TestCache:
    """The persistent per-day tier: result shards in the shard store."""

    def test_cold_then_warm(self, as2org, tmp_path):
        factory = WorldStreamFactory(SCENARIO)
        store = tmp_path / "store"
        cold = run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store,
        )
        assert cold.runner_stats.days_computed == 15
        assert cold.runner_stats.days_from_cache == 0
        warm = run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store,
        )
        assert warm.runner_stats.days_computed == 0
        assert warm.runner_stats.days_from_cache == 15
        assert warm.runner_stats.days_total == 15
        assert warm.daily.dates() == cold.daily.dates()
        for date in warm.daily.dates():
            assert warm.daily.on(date) == cold.daily.on(date)

    def test_config_change_misses(self, as2org, tmp_path):
        factory = WorldStreamFactory(SCENARIO)
        store = tmp_path / "store"
        run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store,
        )
        changed = run_inference(
            factory, START, END,
            InferenceConfig(visibility_threshold=0.25),
            as2org=as2org, jobs=1, store_dir=store,
        )
        assert changed.runner_stats.days_from_cache == 0
        assert changed.runner_stats.days_computed == 15

    def test_cache_key_tells_every_config_field_apart(self):
        # Result keys must tell configs apart: every field that steps
        # (i)-(iv) read changes the key, and only rule (v), which runs
        # after the fan-in, leaves it alone.
        from repro.delegation.runner import _cache_key

        def key(config):
            return _cache_key(config, START, "input-fp", "as2org-fp")

        base = InferenceConfig.extended()
        for field in dataclasses.fields(InferenceConfig):
            value = getattr(base, field.name)
            if field.name == "consistency_rule":
                changed = ConsistencyRule(5, 1)
            elif isinstance(value, bool):
                changed = not value
            elif isinstance(value, float):
                changed = value / 2
            else:
                pytest.fail(f"no variation for config field {field.name}")
            config = dataclasses.replace(base, **{field.name: changed})
            if field.name == "consistency_rule":
                assert key(config) == key(base)
            else:
                assert key(config) != key(base), field.name

    def test_consistency_rule_change_still_hits(self, as2org, tmp_path):
        # Step (v) runs after the fan-in: sweeping (M, N) must reuse
        # every per-day result shard.
        factory = WorldStreamFactory(SCENARIO)
        store = tmp_path / "store"
        run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store,
        )
        swept = run_inference(
            factory, START, END,
            InferenceConfig(consistency_rule=ConsistencyRule(5, 1)),
            as2org=as2org, jobs=1, store_dir=store,
        )
        assert swept.runner_stats.days_from_cache == 15

    def test_input_change_misses(self, as2org, tmp_path):
        store = tmp_path / "store"
        run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org,
            jobs=1, store_dir=store,
        )
        other_scenario = dataclasses.replace(SCENARIO, seed=7)
        other_world = World(other_scenario)
        other = run_inference(
            WorldStreamFactory(other_scenario), START, END,
            InferenceConfig.extended(), as2org=other_world.as2org(),
            jobs=1, store_dir=store,
        )
        assert other.runner_stats.days_from_cache == 0

    def test_corrupt_entry_recomputed(self, as2org, tmp_path):
        factory = WorldStreamFactory(SCENARIO)
        store = tmp_path / "store"
        first = run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store,
        )
        entries = sorted((store / "results").rglob("*.rpd"))
        assert len(entries) == 15
        # Truncated body and a foreign (old-JSON-era) payload must
        # both read as misses, never as wrong results.
        entries[0].write_bytes(entries[0].read_bytes()[:-3])
        entries[1].write_text(json.dumps({"schema": 1}), encoding="utf-8")
        metrics = MetricsRegistry()
        healed = run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store, metrics=metrics,
        )
        assert healed.runner_stats.days_from_cache == 13
        assert healed.runner_stats.days_computed == 2
        assert metrics.counter("store.malformed") == 2
        for date in first.daily.dates():
            assert healed.daily.on(date) == first.daily.on(date)

    def test_corrupt_result_shard_is_recomputed(self, as2org, tmp_path):
        from repro.delegation.runner import _cache_key
        from repro.store import ShardStore

        factory = WorldStreamFactory(SCENARIO)
        store_dir = tmp_path / "store"
        first = run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store_dir,
        )
        store = ShardStore(store_dir, factory.fingerprint())
        key = _cache_key(
            InferenceConfig.extended(), START, factory.fingerprint(),
            as2org.fingerprint(),
        )
        path = store.result_path(key)
        path.write_bytes(path.read_bytes()[:-5])
        metrics = MetricsRegistry()
        healed = run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store_dir, metrics=metrics,
        )
        assert metrics.counter("store.malformed") == 1
        assert metrics.counter("store.result_hits") == 14
        assert healed.runner_stats.days_computed == 1
        assert _daily_bytes(healed, tmp_path / "healed.jsonl") == \
            _daily_bytes(first, tmp_path / "first.jsonl")
        # The recompute wrote the shard back whole.
        warm = MetricsRegistry()
        run_inference(
            factory, START, END, InferenceConfig.extended(),
            as2org=as2org, jobs=1, store_dir=store_dir, metrics=warm,
        )
        assert warm.counter("store.result_hits") == 15

    def test_cache_requires_fingerprint(self, as2org, tmp_path):
        with pytest.raises(ReproError, match="fingerprint"):
            run_inference(
                lambda: World(SCENARIO).stream(), START, END,
                InferenceConfig.extended(), as2org=as2org,
                jobs=1, store_dir=tmp_path / "store",
            )


class TestFailureModes:
    def test_same_org_requires_as2org(self):
        with pytest.raises(ReproError, match="as2org"):
            run_inference(
                WorldStreamFactory(SCENARIO), START, END,
                InferenceConfig.extended(), jobs=1,
            )

    def test_bad_jobs_rejected(self, as2org):
        with pytest.raises(ReproError, match="jobs"):
            run_inference(
                WorldStreamFactory(SCENARIO), START, END,
                InferenceConfig.extended(), as2org=as2org, jobs=0,
            )

    @pytest.mark.parametrize("step_days", [0, -7])
    def test_bad_step_days_rejected(self, as2org, step_days):
        with pytest.raises(ReproError, match="step_days"):
            run_inference(
                WorldStreamFactory(SCENARIO), START, END,
                InferenceConfig.extended(), as2org=as2org,
                step_days=step_days,
            )

    def test_worker_exception_surfaces_as_repro_error(self):
        with pytest.raises(ReproError, match="worker failed"):
            run_inference(
                _ExplodingStreamFactory(), START,
                START + datetime.timedelta(days=4),
                InferenceConfig.baseline(), jobs=2,
            )

    def test_worker_hard_crash_surfaces_as_repro_error(self):
        # A worker dying mid-task breaks the whole pool; the runner
        # must translate that into ReproError, not hang or leak the
        # raw BrokenProcessPool.
        with pytest.raises(ReproError, match="worker failed"):
            run_inference(
                _DyingStreamFactory(), START,
                START + datetime.timedelta(days=4),
                InferenceConfig.baseline(), jobs=2,
            )


class _ReplaySystemFactory:
    """Rebuild the small world's collector system in any process."""

    def __call__(self):
        return World(SCENARIO).collector_system()


class TestArchiveFactory:
    def test_archive_backed_run(self, world, tmp_path):
        archive = tmp_path / "archive"
        source = world.announcement_source()
        dates = [START + datetime.timedelta(days=i) for i in range(3)]
        for date in dates:
            world.collector_system().write_day(
                source(date), date, archive
            )
        factory = ArchiveStreamFactory(
            str(archive), _ReplaySystemFactory()
        )
        result = run_inference(
            factory, START, START + datetime.timedelta(days=3),
            InferenceConfig.baseline(), jobs=1,
            store_dir=tmp_path / "store",
        )
        assert result.observation_dates == dates
        # Same days straight from the in-memory stream must agree.
        reference = DelegationInference(
            InferenceConfig.baseline()
        ).infer_range(
            world.stream(), START, START + datetime.timedelta(days=3)
        )
        for date in dates:
            assert result.daily.on(date) == reference.daily.on(date)

    def test_archive_fingerprint_tracks_content(self, world, tmp_path):
        archive = tmp_path / "archive"
        source = world.announcement_source()
        world.collector_system().write_day(source(START), START, archive)
        factory = ArchiveStreamFactory(
            str(archive), _ReplaySystemFactory()
        )
        before = factory.fingerprint()
        next_day = START + datetime.timedelta(days=1)
        world.collector_system().write_day(
            source(next_day), next_day, archive
        )
        assert factory.fingerprint() != before
