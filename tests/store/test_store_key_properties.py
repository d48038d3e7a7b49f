"""Store keys tell seed, scale and config apart: no stale hits.

One store directory serves two consecutive runs, ``(seed A, config
X)`` and then ``(seed B, config Y)``.  Run B must return exactly what
its storeless run computes.  It may serve a day from a result shard
only when the seed and both result-key fields (``visibility_threshold``
and ``same_org_filter``) match, and then it serves every day from one.  Rule (v) runs after the fan-in
and is not part of the result key, so two configs that differ only in
``consistency_rule`` share their shards, yet each returns its own
filled days.  Input keys are the stream factory's fingerprint, which
must also differ across scales.

Runs stay at small scale, ``jobs=1``, on grids of 30 days or more; the
window reaches past the small preset's BGP window so a wide rule can
fill a gap between three grid days.
"""

import dataclasses
import datetime
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
)
from repro.delegation.consistency import ConsistencyRule
from repro.obs.metrics import MetricsRegistry
from repro.simulation import (
    World,
    internet_scenario,
    paper_scenario,
    small_scenario,
)

#: Seeds that once failed; none so far.  Each entry is
#: ``(seed_a, config_a, seed_b, config_b, step_days)``.
REGRESSION_SEEDS = []

START = small_scenario().bgp_start
END = START + datetime.timedelta(days=91)
RESULT_KEY_FIELDS = ("visibility_threshold", "same_org_filter")

seeds = st.sampled_from([1, 2])
steps = st.sampled_from([30, 45])
rules = st.sampled_from([
    None, ConsistencyRule(10, 0), ConsistencyRule(60, 0),
    ConsistencyRule(90, 1),
])
configs = st.builds(
    InferenceConfig,
    visibility_threshold=st.sampled_from([0.3, 0.5]),
    same_org_filter=st.booleans(),
    consistency_rule=rules,
)

OTHER_THRESHOLD = {0.3: 0.5, 0.5: 0.3}


@st.composite
def config_pairs(draw):
    """Two configs that differ in the rule and in at most one key field.

    Independent draws would share a result key once in 4; this way
    the pairs that must hit and those that must miss both come often.
    """
    first = draw(configs)
    second = dataclasses.replace(first, consistency_rule=draw(rules))
    changed = draw(st.sampled_from((None,) + RESULT_KEY_FIELDS))
    if changed == "visibility_threshold":
        second = dataclasses.replace(
            second,
            visibility_threshold=OTHER_THRESHOLD[first.visibility_threshold],
        )
    elif changed is not None:
        second = dataclasses.replace(
            second, **{changed: not getattr(first, changed)}
        )
    return first, second


def _run(seed, config, step_days, store_dir=None):
    scenario = small_scenario(seed)
    metrics = MetricsRegistry()
    result = run_inference(
        WorldStreamFactory(scenario), START, END, config,
        as2org=World(scenario).as2org(), step_days=step_days, jobs=1,
        metrics=metrics, store_dir=store_dir,
    )
    return result, metrics.counters()


def _assert_same_days(result, expected):
    assert result.daily.dates() == expected.daily.dates()
    for date in expected.daily.dates():
        assert (
            result.daily.column(date).tobytes()
            == expected.daily.column(date).tobytes()
        ), date


def _pipeline(counters):
    return {k: v for k, v in counters.items() if k.startswith("pipeline.")}


def check_two_runs(seed_a, config_a, seed_b, config_b, step_days):
    with tempfile.TemporaryDirectory() as store_dir:
        _run(seed_a, config_a, step_days, store_dir)
        stored, stored_counters = _run(seed_b, config_b, step_days, store_dir)
    fresh, fresh_counters = _run(seed_b, config_b, step_days)
    _assert_same_days(stored, fresh)
    assert _pipeline(stored_counters) == _pipeline(fresh_counters)
    stats = stored.runner_stats
    same_key = seed_a == seed_b and all(
        getattr(config_a, field) == getattr(config_b, field)
        for field in RESULT_KEY_FIELDS
    )
    assert stats.days_from_cache == (stats.days_total if same_key else 0)


class TestStoreKeys:
    @settings(max_examples=60, deadline=None)
    @given(seeds, seeds, config_pairs(), steps)
    def test_second_run_never_reads_stale_shards(
        self, seed_a, seed_b, pair, step_days
    ):
        config_a, config_b = pair
        check_two_runs(seed_a, config_a, seed_b, config_b, step_days)

    @settings(max_examples=30, deadline=None)
    @given(seeds, configs, rules, steps)
    def test_rule_only_configs_share_shards(
        self, seed, config, rule, step_days
    ):
        other = dataclasses.replace(config, consistency_rule=rule)
        with tempfile.TemporaryDirectory() as store_dir:
            first, _ = _run(seed, config, step_days, store_dir)
            second, counters = _run(seed, other, step_days, store_dir)
        assert second.runner_stats.days_from_cache == (
            second.runner_stats.days_total
        )
        _assert_same_days(first, _run(seed, config, step_days)[0])
        fresh, fresh_counters = _run(seed, other, step_days)
        _assert_same_days(second, fresh)
        assert _pipeline(counters) == _pipeline(fresh_counters)

    def test_rule_only_configs_fill_differently(self):
        # At step 30 the grid is day 0, 30, 60, 90: M = 60 can fill a
        # gap, M = 10 cannot, and both read the same shards.
        wide = InferenceConfig(consistency_rule=ConsistencyRule(60, 0))
        narrow = dataclasses.replace(
            wide, consistency_rule=ConsistencyRule(10, 0)
        )
        with tempfile.TemporaryDirectory() as store_dir:
            _, wide_counters = _run(1, wide, 30, store_dir)
            narrow_result, narrow_counters = _run(1, narrow, 30, store_dir)
        assert narrow_result.runner_stats.days_from_cache == 4
        assert wide_counters["pipeline.consistency.fills"] > 0
        assert narrow_counters["pipeline.consistency.fills"] == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_fingerprints_differ_across_scales_and_seeds(self, seed):
        fingerprints = {
            WorldStreamFactory(preset(s)).fingerprint()
            for preset in (small_scenario, paper_scenario, internet_scenario)
            for s in (seed, seed + 1)
        }
        assert len(fingerprints) == 6

    def test_regression_seeds(self):
        for case in REGRESSION_SEEDS:
            check_two_runs(*case)
