"""Tests for the RPKI consistency-rule evaluation (Fig. 5)."""

import datetime

import pytest

from repro.delegation.rpki_eval import (
    RuleEvaluation,
    evaluate_rules_on_rpki,
    fail_rate_curves,
)
from repro.netbase.prefix import IPv4Prefix
from repro.rpki.database import RoaDatabase
from repro.rpki.roa import Roa

D = datetime.date


def p(text):
    return IPv4Prefix.parse(text)


def build_database(days, missing_days=(), unobserved=()):
    """Daily snapshots with one delegation, absent on missing_days.

    Days in ``unobserved`` have no snapshot, which makes the grid sparse.
    """
    database = RoaDatabase()
    start = D(2020, 1, 1)
    for i in range(days):
        if i in unobserved:
            continue
        date = start + datetime.timedelta(days=i)
        roas = [Roa(p("193.0.0.0/16"), 100)]
        if i not in missing_days:
            roas.append(Roa(p("193.0.4.0/24"), 200))
        database.add_snapshot(date, roas)
    return database


class TestEvaluation:
    def test_perfect_continuity_zero_fail(self):
        database = build_database(15)
        evaluations = evaluate_rules_on_rpki(database, [10], [0])
        assert len(evaluations) == 1
        assert evaluations[0].premises == 5   # starts on days 0..4
        assert evaluations[0].fail_rate == 0.0

    def test_single_absence_fails_strict_rule(self):
        database = build_database(12, missing_days={5})
        strict, lenient = evaluate_rules_on_rpki(database, [10], [0, 1])
        assert strict.allowed_missing == 0
        assert strict.violations > 0
        assert lenient.violations == 0

    def test_fail_rate_decreases_with_n(self):
        database = build_database(40, missing_days={5, 6, 18, 30})
        evaluations = evaluate_rules_on_rpki(database, [15], [0, 1, 2, 3])
        rates = [e.fail_rate for e in evaluations]
        assert rates == sorted(rates, reverse=True)

    def test_curves_grouping(self):
        database = build_database(15)
        evaluations = evaluate_rules_on_rpki(database, [5, 10], [0, 1])
        curves = fail_rate_curves(evaluations)
        assert set(curves) == {0, 1}
        assert [m for m, _r in curves[0]] == [5, 10]

    def test_zero_premises(self):
        evaluation = RuleEvaluation(10, 0, premises=0, violations=0)
        assert evaluation.fail_rate == 0.0

    def test_multiple_span_values_ordered(self):
        database = build_database(30)
        evaluations = evaluate_rules_on_rpki(database, [20, 5, 10], [0])
        spans = [e.max_span_days for e in evaluations]
        assert spans == [5, 10, 20]


#: A daily snapshot grid and one with a day missing from it.
GRIDS = pytest.mark.parametrize(
    "unobserved", [(), (20,)], ids=["daily", "sparse"]
)


class TestRuleFamilyInput:
    @GRIDS
    @pytest.mark.parametrize(
        "spans, missing", [([0], [0]), ([10], [-1]), ([0], [0, -1])]
    )
    def test_bad_rules_rejected_on_every_grid(
        self, unobserved, spans, missing
    ):
        database = build_database(30, unobserved=unobserved)
        with pytest.raises(ValueError):
            evaluate_rules_on_rpki(database, spans, missing)

    @GRIDS
    def test_duplicate_values_evaluated_once(self, unobserved):
        database = build_database(
            30, missing_days={5}, unobserved=unobserved
        )
        [once] = evaluate_rules_on_rpki(database, [10], [0])
        assert once.premises > 0 and once.violations > 0
        assert evaluate_rules_on_rpki(database, [10, 10], [0]) == [once]
        assert evaluate_rules_on_rpki(database, [10], [0, 0]) == [once]
