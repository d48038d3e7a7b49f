"""Unit tests for the consistency-rule machinery."""

import datetime

import pytest

from repro.delegation.consistency import (
    ConsistencyRule,
    evaluate_rules,
    fill_gaps,
)
from repro.delegation.model import DailyDelegations
from repro.netbase.prefix import IPv4Prefix
from repro.obs.metrics import MetricsRegistry
from tests.delegation import consistency_oracle as oracle

D = datetime.date


def p(text):
    return IPv4Prefix.parse(text)


def grid(first, count, step=1):
    return [first + datetime.timedelta(days=step * i) for i in range(count)]


KEY = (p("193.0.4.0/24"), 100, 200)
CONFLICT_KEY = (p("193.0.4.0/24"), 100, 300)  # same prefix, other delegatee
OTHER_KEY = (p("193.0.8.0/24"), 100, 300)


class TestRuleValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            ConsistencyRule(0, 0)
        with pytest.raises(ValueError):
            ConsistencyRule(5, -1)


class TestEvaluateRule:
    def test_no_gap_no_violation(self):
        dates = grid(D(2020, 1, 1), 11)
        [evaluation] = evaluate_rules({KEY: dates}, dates, [10], [0])
        assert evaluation.premises == 1  # exactly one pair 10 days apart
        assert evaluation.violations == 0

    def test_gap_violates_strict_rule(self):
        dates = grid(D(2020, 1, 1), 11)
        observed = [d for d in dates if d != D(2020, 1, 5)]
        [evaluation] = evaluate_rules({KEY: observed}, dates, [10], [0])
        assert (evaluation.premises, evaluation.violations) == (1, 1)

    def test_gap_allowed_with_n(self):
        dates = grid(D(2020, 1, 1), 11)
        observed = [d for d in dates if d != D(2020, 1, 5)]
        [evaluation] = evaluate_rules({KEY: observed}, dates, [10], [1])
        assert (evaluation.premises, evaluation.violations) == (1, 0)

    def test_data_gaps_are_not_premises(self):
        # Observation grid itself misses a day inside the span.
        dates = [d for d in grid(D(2020, 1, 1), 11) if d != D(2020, 1, 5)]
        [evaluation] = evaluate_rules({KEY: dates}, dates, [10], [0])
        assert evaluation.premises == 0

    def test_multiple_premises(self):
        dates = grid(D(2020, 1, 1), 21)
        [evaluation] = evaluate_rules({KEY: dates}, dates, [10], [0])
        assert evaluation.premises == 11  # days 0..10 can each start a pair
        assert evaluation.violations == 0

    def test_fail_rate(self):
        dates = grid(D(2020, 1, 1), 11)
        observed = [d for d in dates if d != D(2020, 1, 5)]
        [evaluation] = evaluate_rules({KEY: observed}, dates, [10], [0])
        assert evaluation.fail_rate == 1.0
        [empty] = evaluate_rules({}, dates, [10], [0])
        assert empty.fail_rate == 0.0

    def test_premise_spans_exactly_m_minus_one_between_days(self):
        # Boundary audit: a (M=10, N) premise judges exactly the M-1
        # days strictly between X and X+M — boundary days X and X+M
        # are the observations themselves, never "missing".
        dates = grid(D(2020, 1, 1), 11)
        observed = [dates[0], dates[10]]  # absent on all 9 between
        strict, lenient = evaluate_rules({KEY: observed}, dates, [10], [8, 9])
        assert (lenient.premises, lenient.violations) == (1, 0)  # 9 == N
        assert (strict.premises, strict.violations) == (1, 1)  # 9 > N=8

    def test_monotone_in_n(self):
        dates = grid(D(2020, 1, 1), 31)
        observed = [d for i, d in enumerate(dates) if i % 4 != 3]
        evaluations = evaluate_rules({KEY: observed}, dates, [12], range(4))
        rates = [e.fail_rate for e in evaluations]
        assert rates == sorted(rates, reverse=True)


class TestFillGaps:
    def _daily(self, present_dates, key=KEY):
        daily = DailyDelegations()
        for date in present_dates:
            daily.record(date, [key])
        return daily

    def test_fills_short_gap(self):
        dates = grid(D(2020, 1, 1), 6)
        daily = self._daily([dates[0], dates[5]])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        for date in dates:
            assert KEY in filled.on(date)

    def test_does_not_fill_beyond_m(self):
        dates = grid(D(2020, 1, 1), 15)
        daily = self._daily([dates[0], dates[14]])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        assert KEY not in filled.on(dates[7])

    def test_conflict_blocks_fill(self):
        dates = grid(D(2020, 1, 1), 6)
        daily = self._daily([dates[0], dates[5]])
        daily.record(dates[2], [CONFLICT_KEY])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        assert KEY not in filled.on(dates[1])
        assert KEY not in filled.on(dates[3])
        # Conflicting key untouched.
        assert CONFLICT_KEY in filled.on(dates[2])

    def test_other_prefix_does_not_conflict(self):
        dates = grid(D(2020, 1, 1), 6)
        daily = self._daily([dates[0], dates[5]])
        daily.record(dates[2], [OTHER_KEY])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        assert KEY in filled.on(dates[3])

    def test_fill_only_observation_days(self):
        # Weekly observation grid: fill lands on grid days only.
        dates = [D(2020, 1, 1) + datetime.timedelta(days=7 * i)
                 for i in range(3)]
        daily = self._daily([dates[0], dates[1]])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        # Gap of 7 days <= 10 but no observation day in between: nothing
        # new recorded, nothing invented off-grid.
        assert filled.dates() == [dates[0], dates[1]]

    def test_off_grid_sighting_breaks_gap(self):
        # A sighting on a day the grid lacks splits the gap around it
        # into two gaps that each end off the grid: neither is filled.
        dates = [d for d in grid(D(2020, 1, 1), 11) if d != D(2020, 1, 5)]
        daily = self._daily([dates[0], D(2020, 1, 5), dates[7]])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        for date in dates[1:7]:
            assert KEY not in filled.on(date)

    def test_original_untouched(self):
        dates = grid(D(2020, 1, 1), 6)
        daily = self._daily([dates[0], dates[5]])
        fill_gaps(daily, ConsistencyRule(10, 0), dates)
        assert KEY not in daily.on(dates[2])

    def test_fills_exact_m_day_span(self):
        # Boundary audit: observations exactly M days apart are the
        # *largest* gap the rule fills; an off-by-one either way would
        # fill M+1 or stop at M-1.
        dates = grid(D(2020, 1, 1), 12)
        daily = self._daily([dates[0], dates[10]])  # gap == M == 10
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        for date in dates[1:10]:  # all 9 = M-1 in-between days
            assert KEY in filled.on(date)
        assert KEY not in filled.on(dates[11])

    def test_does_not_fill_m_plus_one_span(self):
        dates = grid(D(2020, 1, 1), 12)
        daily = self._daily([dates[0], dates[11]])  # gap == M + 1
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        for date in dates[1:11]:
            assert KEY not in filled.on(date)

    def test_conflict_on_boundary_days_does_not_block(self):
        # The rule's premise is about the days *between* X and X+M; a
        # conflicting delegation coexisting on X or X+M themselves (a
        # MOAS-style overlap) must not suppress the fill.
        dates = grid(D(2020, 1, 1), 11)
        daily = self._daily([dates[0], dates[10]])
        daily.record(dates[0], [CONFLICT_KEY])
        daily.record(dates[10], [CONFLICT_KEY])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        for date in dates[1:10]:
            assert KEY in filled.on(date)

    def test_conflict_adjacent_to_boundary_blocks(self):
        # ... but the first/last *in-between* day (X+1, X+M-1) counts.
        dates = grid(D(2020, 1, 1), 11)
        for conflict_day in (dates[1], dates[9]):
            daily = self._daily([dates[0], dates[10]])
            daily.record(conflict_day, [CONFLICT_KEY])
            filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
            assert KEY not in filled.on(dates[5])

    def test_variance_reduction_effect(self):
        """Gap filling flattens an on-off pattern (Fig. 6's point)."""
        dates = grid(D(2020, 1, 1), 30)
        on_off = [d for i, d in enumerate(dates) if i % 2 == 0]
        daily = self._daily(on_off)
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates)
        counts_before = [daily.count_on(d) for d in dates]
        counts_after = [filled.count_on(d) for d in dates]
        assert max(counts_before) - min(counts_before) == 1
        # After filling every day between first and last sighting is on.
        assert counts_after[:29] == [1] * 29

    # Grids on which no gap can be filled come back untouched.  A fill
    # (or a counted conflict) needs consecutive sightings at grid
    # positions i and j >= i + 2 at most M days apart, so when every
    # ordinal[i + 2] - ordinal[i] exceeds M, fill_gaps returns its
    # input.  On a uniform step s that is exactly 2s > M.

    def _assert_exit(self, daily, rule, dates):
        metrics = MetricsRegistry()
        assert fill_gaps(daily, rule, dates, metrics=metrics) is daily
        assert metrics.counters() == {
            "pipeline.consistency.fills": 0,
            "pipeline.consistency.conflicts": 0,
        }

    def test_step_of_half_m_still_fills(self):
        dates = grid(D(2020, 1, 1), 5, step=5)  # 2s == M
        daily = self._daily([dates[0], dates[2]])
        metrics = MetricsRegistry()
        filled = fill_gaps(daily, ConsistencyRule(10, 0), dates,
                           metrics=metrics)
        assert filled is not daily
        assert KEY in filled.on(dates[1])
        assert metrics.counters()["pipeline.consistency.fills"] == 1

    def test_step_over_half_m_returns_input(self):
        dates = grid(D(2020, 1, 1), 5, step=5)  # 2s == M + 1
        daily = self._daily([dates[0], dates[2], dates[3]])
        daily.record(dates[1], [CONFLICT_KEY])
        self._assert_exit(daily, ConsistencyRule(9, 0), dates)

    def test_daily_stretch_then_sparse_is_still_filled(self):
        dates = grid(D(2020, 1, 1), 10) + grid(D(2020, 2, 1), 4, step=30)
        daily = self._daily([dates[0], dates[4], dates[10], dates[12]])
        daily.record(dates[2], [OTHER_KEY])
        daily.record(dates[11], [CONFLICT_KEY])
        rule = ConsistencyRule(10, 0)
        metrics, oracle_metrics = MetricsRegistry(), MetricsRegistry()
        filled = fill_gaps(daily, rule, dates, metrics=metrics)
        expected = oracle.fill_gaps(daily, rule, dates,
                                    metrics=oracle_metrics)
        assert KEY in filled.on(dates[2])
        assert filled.dates() == expected.dates()
        for date in expected.dates():
            assert filled.on(date) == expected.on(date)
        assert metrics.counters() == oracle_metrics.counters()

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_short_grids_return_input(self, count):
        dates = grid(D(2020, 1, 1), count)
        daily = self._daily(grid(D(2019, 12, 30), 5))
        self._assert_exit(daily, ConsistencyRule(10, 0), dates)
