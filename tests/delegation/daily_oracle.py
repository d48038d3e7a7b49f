"""The set-based per-day delegation store, kept as a test oracle.

:class:`repro.delegation.model.DailyDelegations` keeps each day as one
sorted packed column of ``(network, length, delegator, delegatee)``
quads.  This module keeps the implementation it replaced, unchanged: a
Python set of ``(IPv4Prefix, S, T)`` keys per day, read by walking the
objects.  ``test_daily_properties.py`` checks every reader of the
columnar store against it, and :mod:`tests.delegation.consistency_oracle`
fills gaps on it.
"""

import datetime
from typing import Dict, Iterable, List, Set

from repro.delegation.model import DelegationKey
from repro.netbase.prefix import IPv4Prefix


class DailyDelegations:
    """Per-day sets of delegation keys, plus address accounting."""

    def __init__(self) -> None:
        self._by_date: Dict[datetime.date, Set[DelegationKey]] = {}

    def record(
        self, date: datetime.date, keys: Iterable[DelegationKey]
    ) -> None:
        self._by_date.setdefault(date, set()).update(keys)

    def on(self, date: datetime.date) -> Set[DelegationKey]:
        return set(self._by_date.get(date, set()))

    def dates(self) -> List[datetime.date]:
        return sorted(self._by_date)

    def count_on(self, date: datetime.date) -> int:
        return len(self._by_date.get(date, ()))

    def addresses_on(self, date: datetime.date) -> int:
        """Distinct delegated addresses on ``date``.

        Delegation keys can share prefixes (the same P' delegated by
        different inferred delegators on MOAS-ish corner cases); we
        count distinct prefixes.
        """
        from repro.netbase.prefixset import address_count

        return address_count(key[0] for key in self._by_date.get(date, ()))

    def prefixes_on(self, date: datetime.date) -> Set[IPv4Prefix]:
        return {key[0] for key in self._by_date.get(date, ())}

    def length_distribution(self, date: datetime.date) -> Dict[int, float]:
        """Fraction of delegations per prefix length on ``date``."""
        keys = self._by_date.get(date, set())
        if not keys:
            return {}
        counts: Dict[int, int] = {}
        for prefix, _s, _t in keys:
            counts[prefix.length] = counts.get(prefix.length, 0) + 1
        total = len(keys)
        return {length: counts[length] / total for length in sorted(counts)}

    def timeline(self) -> Dict[DelegationKey, List[datetime.date]]:
        """Key → sorted dates on which the delegation was observed."""
        timeline: Dict[DelegationKey, List[datetime.date]] = {}
        for date in self.dates():
            for key in self._by_date[date]:
                timeline.setdefault(key, []).append(date)
        return timeline

    def copy(self) -> "DailyDelegations":
        duplicate = DailyDelegations()
        for date, keys in self._by_date.items():
            duplicate.record(date, keys)
        return duplicate

    def __len__(self) -> int:
        return len(self._by_date)


def from_daily(daily) -> DailyDelegations:
    """The oracle's copy of any store that answers ``dates``/``on``."""
    duplicate = DailyDelegations()
    for date in daily.dates():
        duplicate.record(date, daily.on(date))
    return duplicate
