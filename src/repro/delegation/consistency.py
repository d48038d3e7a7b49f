"""The "(M, N)" consistency-rule family (appendix A).

Rules have the form: *if a delegation is observed on day X and on day
X+M, it also exists for all but N days in between.*  Both operations
run on one representation: the sorted observation days as day
ordinals, and each delegation's sightings as sorted *grid positions*
(indices into those days).  Positions ``i < j`` have data for every
calendar day between them exactly when ``ordinal[j] - ordinal[i] ==
j - i``, so one path serves daily and sparse grids alike.

- :func:`evaluate_rules` — measure the **fail rate** of a family of
  rules on observed delegation timelines (the fraction of (X, X+M)
  pairs whose gap exceeds N missing days), used on RPKI data to pick
  (M=10, N=0) (Fig. 5);
- :func:`fill_gaps` — apply a rule to BGP delegations (extension (v)):
  gaps up to M days are filled **unless** a *conflicting* delegation
  (same prefix, different delegatee) was observed in between.
"""

from __future__ import annotations

import datetime
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, repeat
from operator import lt, sub
from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.delegation.model import DailyDelegations, pack_quads
from repro.obs.metrics import NULL, MetricsRegistry


@dataclass(frozen=True)
class ConsistencyRule:
    """One rule: observations M days apart imply ≤ N missing days."""

    max_span_days: int = 10   # M
    allowed_missing: int = 0  # N

    def __post_init__(self) -> None:
        if self.max_span_days < 1:
            raise ValueError("M must be at least one day")
        if self.allowed_missing < 0:
            raise ValueError("N cannot be negative")


@dataclass(frozen=True)
class RuleEvaluation:
    """Fail rate of one (M, N) rule on a set of timelines."""

    max_span_days: int     # M
    allowed_missing: int   # N
    premises: int
    violations: int

    @property
    def fail_rate(self) -> float:
        if self.premises == 0:
            return 0.0
        return self.violations / self.premises


def _grid(
    observation_dates: Iterable[datetime.date],
) -> Tuple[List[datetime.date], Dict[datetime.date, int], List[int]]:
    """The sorted grid days, day → position, and position → ordinal."""
    days = sorted(set(observation_dates))
    position = {day: i for i, day in enumerate(days)}
    return days, position, [day.toordinal() for day in days]


def evaluate_rules(
    timelines: Mapping[tuple, Iterable[datetime.date]],
    observation_dates: Iterable[datetime.date],
    span_values: Iterable[int],
    missing_values: Iterable[int],
) -> List[RuleEvaluation]:
    """Evaluate every distinct (M, N) rule on ``timelines``.

    ``timelines`` maps a delegation key to the dates it was observed;
    ``observation_dates`` is the grid of days data exists for, so gaps
    in the *data* never count as absences.  A premise is a pair of
    sightings exactly M days apart with data for all M-1 days between;
    it is violated when the delegation is absent on more than N of
    them.  Sightings off the grid take no part.

    One pass per key and M fills a histogram of absent-day counts,
    which answers every N at once.  Returns one
    :class:`RuleEvaluation` per distinct (M, N), ordered by (M, N);
    raises :class:`ValueError` for M < 1 or N < 0.
    """
    rules = [
        ConsistencyRule(span, missing)
        for span in sorted(set(span_values))
        for missing in sorted(set(missing_values))
    ]
    _days, position, ordinals = _grid(observation_dates)
    absent = {rule.max_span_days: [0] * rule.max_span_days for rule in rules}
    for dates in timelines.values():
        seen = sorted({position[day] for day in dates if day in position})
        rank = {i: r for r, i in enumerate(seen)}
        for span, counts in absent.items():
            for r, i in enumerate(seen):
                s = rank.get(i + span)
                if s is not None and ordinals[i + span] - ordinals[i] == span:
                    # s - r - 1 of the M - 1 days between are sightings.
                    counts[span - s + r] += 1
    return [
        RuleEvaluation(
            max_span_days=rule.max_span_days,
            allowed_missing=rule.allowed_missing,
            premises=sum(absent[rule.max_span_days]),
            violations=sum(
                absent[rule.max_span_days][rule.allowed_missing + 1:]
            ),
        )
        for rule in rules
    ]


def _observed_between(positions: List[int], i: int, j: int) -> bool:
    """Whether the sorted ``positions`` hold one strictly between i and j."""
    k = bisect_right(positions, i)
    return k < len(positions) and positions[k] < j


def fill_gaps(
    daily: DailyDelegations,
    rule: ConsistencyRule,
    observation_dates: Iterable[datetime.date],
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
    days nobody measured.  A sighting on a day off the grid still
    breaks the gap around it.

    A grid too sparse to fill anything returns ``daily`` itself, not a
    copy: see the exit below.

    ``metrics`` receives ``pipeline.consistency.fills`` (key-days
    added) and ``pipeline.consistency.conflicts`` (gaps left open
    because of a rival delegation); both are deterministic functions
    of the input, so parallel and sequential runs report the same.
    """
    grid, position, ordinals = _grid(observation_dates)
    # A fill or a counted conflict needs consecutive sightings at grid
    # positions i and j >= i + 2 with ordinals[j] - ordinals[i] <= M.
    # Ordinals strictly increase, so the shortest such span from i is
    # ordinals[i + 2] - ordinals[i]; when every one exceeds M (any
    # uniform step s with 2s > M, or fewer than three grid days), the
    # columns below would be rebuilt exactly as they are.
    if not any(
        later - earlier <= rule.max_span_days
        for earlier, later in zip(ordinals, ordinals[2:])
    ):
        metrics.inc("pipeline.consistency.fills", 0)
        metrics.inc("pipeline.consistency.conflicts", 0)
        return daily
    recorded = daily.dates()
    # Every day a column can end up on — the recorded days and the grid
    # days — indexed in date order; sightings arrive as those indices.
    days = sorted(set(recorded) | set(grid))
    index = {day: u for u, day in enumerate(days)}
    to_grid = [position.get(day, -1) for day in days]
    from_grid = [index[day] for day in grid]
    sightings = daily.sightings([index[day] for day in recorded])
    # Rivals can only exist on a prefix delegated to more than one
    # delegatee somewhere in the window; those are rare (MOAS
    # announcements are dropped in step (iii)), so only they are
    # indexed: (network, length) → delegatee → sorted grid positions.
    delegatees: Dict[Tuple[int, int], Set[int]] = {}
    for network, length, _delegator, delegatee in sightings:
        delegatees.setdefault((network, length), set()).add(delegatee)
    rivals: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
    for (network, length, _delegator, delegatee), seen in sightings.items():
        if len(delegatees[network, length]) > 1:
            rivals.setdefault((network, length), {}).setdefault(
                delegatee, []
            ).extend(to_grid[u] for u in seen if to_grid[u] >= 0)
    for by_delegatee in rivals.values():
        for positions in by_delegatee.values():
            positions.sort()
    fill_count = 0
    conflict_count = 0
    gap = partial(lt, 1)
    for (network, length, _delegator, delegatee), seen in sightings.items():
        fills: List[int] = []
        # Sightings on adjacent days leave nothing between them, so only
        # the k with seen[k + 1] - seen[k] > 1 are looked at.
        for k in compress(count(), map(gap, map(sub, seen[1:], seen))):
            i, j = to_grid[seen[k]], to_grid[seen[k + 1]]
            # Adjacent grid positions leave no grid day to fill; a
            # sighting off the grid (-1) breaks the gap around it.
            if i < 0 or j <= i + 1:
                continue
            if ordinals[j] - ordinals[i] > rule.max_span_days:
                continue
            if any(
                other != delegatee and _observed_between(positions, i, j)
                for other, positions in rivals.get(
                    (network, length), {}
                ).items()
            ):
                conflict_count += 1
                continue
            fills.extend(from_grid[i + 1:j])
        seen.extend(fills)
        fill_count += len(fills)
    # Rebuild every column in key order: each key's packed record goes
    # onto each day it is now present on, and a day's column is the
    # join of its records.
    records: List[List[bytes]] = [[] for _ in days]
    add = list.append
    for quad in sorted(sightings):
        deque(map(
            add, map(records.__getitem__, sightings[quad]),
            repeat(pack_quads((quad,)).tobytes()),
        ), maxlen=0)
    was_recorded = set(recorded)
    filled = DailyDelegations()
    for day, column in zip(days, records):
        if column or day in was_recorded:
            filled.record_quads(day, b"".join(column))
    metrics.inc("pipeline.consistency.fills", fill_count)
    metrics.inc("pipeline.consistency.conflicts", conflict_count)
    return filled
