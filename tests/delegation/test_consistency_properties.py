"""Property-based tests for the consistency-rule machinery.

The differential classes compare :mod:`repro.delegation.consistency`
with the date-walking evaluator and the set-based gap filler kept in
:mod:`tests.delegation.consistency_oracle`, on daily and sparse grids
with sightings on days off the grid.
"""

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delegation.consistency import (
    ConsistencyRule,
    evaluate_rules,
    fill_gaps,
)
from repro.delegation.model import DailyDelegations
from repro.netbase.prefix import IPv4Prefix
from repro.obs.metrics import MetricsRegistry
from tests.delegation import consistency_oracle as oracle

START = datetime.date(2020, 1, 1)
GRID = [START + datetime.timedelta(days=i) for i in range(40)]
KEY = (IPv4Prefix.parse("193.0.4.0/24"), 100, 200)
CONFLICT = (IPv4Prefix.parse("193.0.4.0/24"), 100, 300)
#: Same prefix and delegatee as KEY, another delegator: not a rival.
SAME_DELEGATEE = (IPv4Prefix.parse("193.0.4.0/24"), 101, 200)
OTHER_PREFIX = (IPv4Prefix.parse("193.0.8.0/24"), 100, 300)

#: Random subsets of grid days on which the delegation was observed.
day_subsets = st.sets(
    st.integers(min_value=0, max_value=len(GRID) - 1), max_size=len(GRID)
)


#: Observation grids over day offsets 0..29: the full daily grid, or
#: any non-empty subset of it.
grids = st.one_of(
    st.just(list(range(30))),
    st.sets(st.integers(min_value=0, max_value=29), min_size=1).map(sorted),
)
#: Sighting offsets, including days on either side of every grid.
sightings = st.sets(st.integers(min_value=-4, max_value=33), max_size=12)


def day(offset):
    return START + datetime.timedelta(days=offset)


def build_daily(indices, key=KEY):
    daily = DailyDelegations()
    for i in indices:
        daily.record(GRID[i], [key])
    return daily


class TestFillGapsProperties:
    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_fill_is_superset(self, indices, span):
        daily = build_daily(indices)
        filled = fill_gaps(daily, ConsistencyRule(span, 0), GRID)
        for date in daily.dates():
            assert daily.on(date) <= filled.on(date)

    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_fill_is_idempotent(self, indices, span):
        daily = build_daily(indices)
        rule = ConsistencyRule(span, 0)
        once = fill_gaps(daily, rule, GRID)
        twice = fill_gaps(once, rule, GRID)
        for date in GRID:
            assert once.on(date) == twice.on(date)

    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_fill_stays_inside_observation_span(self, indices, span):
        daily = build_daily(indices)
        filled = fill_gaps(daily, ConsistencyRule(span, 0), GRID)
        if not indices:
            assert not filled.dates()
            return
        first, last = min(indices), max(indices)
        for i, date in enumerate(GRID):
            if i < first or i > last:
                assert KEY not in filled.on(date)

    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_filled_series_has_no_fillable_gaps(self, indices, span):
        daily = build_daily(indices)
        rule = ConsistencyRule(span, 0)
        filled = fill_gaps(daily, rule, GRID)
        present = [i for i, d in enumerate(GRID) if KEY in filled.on(d)]
        for a, b in zip(present, present[1:]):
            gap = b - a
            assert gap == 1 or gap > span

    @settings(max_examples=60)
    @given(day_subsets, day_subsets)
    def test_conflicts_never_filled_over(self, indices, conflict_indices):
        daily = build_daily(indices)
        for i in conflict_indices:
            daily.record(GRID[i], [CONFLICT])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), GRID)
        # Wherever the conflicting delegatee was observed, the original
        # key must not have been invented on that day.
        for i in conflict_indices - indices:
            assert KEY not in filled.on(GRID[i])


class TestEvaluateProperties:
    @settings(max_examples=60)
    @given(day_subsets, st.integers(min_value=1, max_value=20))
    def test_violations_bounded_by_premises(self, indices, span):
        timeline = {KEY: sorted(GRID[i] for i in indices)}
        for evaluation in evaluate_rules(timeline, GRID, [span], range(4)):
            assert 0 <= evaluation.violations <= evaluation.premises

    @settings(max_examples=60)
    @given(day_subsets, st.integers(min_value=1, max_value=20))
    def test_monotone_in_allowed_missing(self, indices, span):
        timeline = {KEY: sorted(GRID[i] for i in indices)}
        evaluations = evaluate_rules(timeline, GRID, [span], range(4))
        violations = [e.violations for e in evaluations]
        assert violations == sorted(violations, reverse=True)


class TestOracleDifferential:
    @settings(max_examples=150)
    @given(
        grids,
        st.lists(sightings, min_size=1, max_size=3),
        st.sets(st.integers(1, 12), min_size=1, max_size=3),
        st.sets(st.integers(0, 4), min_size=1, max_size=3),
    )
    def test_evaluate_rules(
        self, grid, offsets, spans, missing
    ):
        dates = [day(i) for i in grid]
        timelines = {
            (KEY[0], 100, 200 + k): sorted(day(i) for i in seen)
            for k, seen in enumerate(offsets)
        }
        expected = [
            (span, n) + oracle.evaluate_rule(
                timelines, ConsistencyRule(span, n), dates
            )
            for span in sorted(spans)
            for n in sorted(missing)
        ]
        assert [
            (e.max_span_days, e.allowed_missing, e.premises, e.violations)
            for e in evaluate_rules(timelines, dates, spans, missing)
        ] == expected

    @settings(max_examples=150)
    @given(
        grids,
        st.fixed_dictionaries({
            key: sightings
            for key in (KEY, CONFLICT, SAME_DELEGATEE, OTHER_PREFIX)
        }),
        st.integers(min_value=1, max_value=12),
    )
    def test_fill_gaps(self, grid, offsets, span):
        dates = [day(i) for i in grid]
        daily = DailyDelegations()
        for key, seen in offsets.items():
            for i in seen:
                daily.record(day(i), [key])
        rule = ConsistencyRule(span, 0)
        metrics, oracle_metrics = MetricsRegistry(), MetricsRegistry()
        filled = fill_gaps(daily, rule, dates, metrics=metrics)
        expected = oracle.fill_gaps(
            daily, rule, dates, metrics=oracle_metrics
        )
        assert filled.dates() == expected.dates()
        for date in expected.dates():
            assert filled.on(date) == expected.on(date)
        assert metrics.counters() == oracle_metrics.counters()


class TestUniformGridExit:
    """On a uniform step s, rule (v) can fill nothing once 2s > M.

    ``fill_gaps`` then hands back its input object; elsewhere it builds
    a new one.  Either way it matches the oracle, counters included.
    """

    @settings(max_examples=150)
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=30),
        st.data(),
    )
    def test_matches_oracle_and_exits_exactly(self, step, count, span, data):
        dates = [day(step * i) for i in range(count)]
        last = step * max(count - 1, 0)
        offsets = st.sets(
            st.integers(min_value=-2, max_value=last + 2), max_size=10
        )
        daily = DailyDelegations()
        for key in (KEY, CONFLICT, SAME_DELEGATEE, OTHER_PREFIX):
            for i in data.draw(offsets):
                daily.record(day(i), [key])
        rule = ConsistencyRule(span, 0)
        metrics, oracle_metrics = MetricsRegistry(), MetricsRegistry()
        filled = fill_gaps(daily, rule, dates, metrics=metrics)
        expected = oracle.fill_gaps(
            daily, rule, dates, metrics=oracle_metrics
        )
        assert filled.dates() == expected.dates()
        for date in expected.dates():
            assert filled.on(date) == expected.on(date)
        assert metrics.counters() == oracle_metrics.counters()
        assert (filled is daily) == (count < 3 or 2 * step > span)
