"""The date-walking (M, N) evaluator and set-based gap filler, kept as
a test oracle.

:mod:`repro.delegation.consistency` runs both operations of the
appendix's rule family on sorted grid positions.  This module keeps the
implementations it replaced, unchanged: ``evaluate_rule`` walks each
delegation's dates and re-slices the observation grid per premise, and
``fill_gaps`` indexes rival delegatees' observation days as sets, on
the set-based store of :mod:`tests.delegation.daily_oracle`.  The
differential suites in ``test_consistency_properties.py`` and
``test_consistency_invariants.py`` compare the library against them.
"""

import datetime
from typing import Dict, Mapping, Sequence, Set, Tuple

from repro.delegation.consistency import ConsistencyRule
from repro.delegation.model import DelegationKey
from repro.obs.metrics import NULL, MetricsRegistry
from tests.delegation.daily_oracle import DailyDelegations, from_daily


def evaluate_rule(
    timelines: Mapping[tuple, Sequence[datetime.date]],
    rule: ConsistencyRule,
    observation_dates: Sequence[datetime.date],
) -> Tuple[int, int]:
    """Count (premises, violations) of ``rule`` over ``timelines``.

    ``timelines`` maps a delegation key to the sorted dates it was
    observed; ``observation_dates`` is the full grid of days data
    exists for (gaps in the *data* must not count as absences).

    A premise is any pair of observations of the same delegation
    exactly M days apart (with data available for every day between);
    it is violated when the delegation is absent on more than N of the
    in-between days.
    """
    date_index = {date: i for i, date in enumerate(sorted(observation_dates))}
    sorted_dates = sorted(observation_dates)
    premises = 0
    violations = 0
    span = datetime.timedelta(days=rule.max_span_days)
    for dates in timelines.values():
        present = set(dates)
        for start in dates:
            end = start + span
            if end not in present:
                continue
            # Require full data coverage for the in-between days.
            start_i = date_index.get(start)
            end_i = date_index.get(end)
            if start_i is None or end_i is None:
                continue
            between = sorted_dates[start_i + 1:end_i]
            if any(
                (day - start).days < 0 or (end - day).days < 0
                for day in between
            ):  # pragma: no cover - sorted grid guarantees order
                continue
            expected_days = rule.max_span_days - 1
            if len(between) != expected_days:
                continue  # data gaps: not a valid premise
            premises += 1
            missing = sum(1 for day in between if day not in present)
            if missing > rule.allowed_missing:
                violations += 1
    return premises, violations


def _conflict_days_by_prefix(
    timelines: Mapping[DelegationKey, Sequence[datetime.date]],
) -> Dict[object, Dict[int, Set[datetime.date]]]:
    """prefix → delegatee → observation days, for *ambiguous* prefixes.

    A conflict can only arise on a prefix delegated to more than one
    delegatee somewhere in the window; those are rare (MOAS announcements
    are dropped in step (iii)), so restricting the map to them keeps
    :func:`fill_gaps` from indexing every (day, delegation) pair.
    """
    delegatees: Dict[object, Set[int]] = {}
    for prefix, _delegator, delegatee in timelines:
        delegatees.setdefault(prefix, set()).add(delegatee)
    ambiguous = {p for p, seen in delegatees.items() if len(seen) > 1}
    conflict_map: Dict[object, Dict[int, Set[datetime.date]]] = {}
    for (prefix, _delegator, delegatee), dates in timelines.items():
        if prefix in ambiguous:
            conflict_map.setdefault(prefix, {}).setdefault(
                delegatee, set()
            ).update(dates)
    return conflict_map


def fill_gaps(
    daily,
    rule: ConsistencyRule,
    observation_dates: Sequence[datetime.date],
    *,
    metrics: MetricsRegistry = NULL,
) -> DailyDelegations:
    """Apply extension (v): fill on-off gaps up to M days.

    For every delegation key observed on two days at most M apart, the
    key is added to all observation days in between — unless any
    in-between day shows the same prefix delegated to a *different*
    delegatee (a conflicting delegation), which invalidates the
    presumption.

    Only days present in ``observation_dates`` are filled: the rule
    reconstructs what measurement gaps hid, it does not invent data for
    days nobody measured.  ``daily`` is any store that answers
    ``dates``/``on``; the walk runs on the set-based oracle's copy.

    ``metrics`` receives ``pipeline.consistency.fills`` (key-days
    added) and ``pipeline.consistency.conflicts`` (gaps left open
    because of a rival delegation); both are deterministic functions
    of the input, so parallel and sequential runs report the same.
    """
    sorted_dates = sorted(observation_dates)
    date_index = {date: i for i, date in enumerate(sorted_dates)}
    daily = from_daily(daily)
    timelines = daily.timeline()
    conflicts = _conflict_days_by_prefix(timelines)
    filled = daily.copy()
    fill_count = 0
    conflict_count = 0
    for key, dates in timelines.items():
        prefix, _delegator, delegatee = key
        rivals = conflicts.get(prefix)
        for first, second in zip(dates, dates[1:]):
            gap_days = (second - first).days
            if gap_days <= 1 or gap_days > rule.max_span_days:
                continue
            start_i = date_index.get(first)
            end_i = date_index.get(second)
            if start_i is None or end_i is None:
                continue
            between = sorted_dates[start_i + 1:end_i]
            if rivals is not None:
                between_set = set(between)
                conflicted = any(
                    other != delegatee
                    and not days.isdisjoint(between_set)
                    for other, days in rivals.items()
                )
                if conflicted:
                    conflict_count += 1
                    continue
            for day in between:
                filled.record(day, [key])
            fill_count += len(between)
    metrics.inc("pipeline.consistency.fills", fill_count)
    metrics.inc("pipeline.consistency.conflicts", conflict_count)
    return filled
