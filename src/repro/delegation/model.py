"""Delegation record types.

A *BGP delegation* :math:`P'_{ST}` exists when delegator AS *S*
originates prefix *P* and delegatee AS *T* originates a more-specific
sub-prefix *P'* (§4).  An *RDAP delegation* is a registered
parent/child inetnum pair with different registrants.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.netbase.prefix import IPv4Prefix

#: The identity of a BGP delegation across days.
DelegationKey = Tuple[IPv4Prefix, int, int]


@dataclass(frozen=True)
class BgpDelegation:
    """One inferred BGP delegation on one day."""

    prefix: IPv4Prefix          # P': the delegated, more-specific prefix
    delegator_asn: int          # S: originates the covering prefix P
    delegatee_asn: int          # T: originates P'
    covering_prefix: IPv4Prefix  # P

    def key(self) -> DelegationKey:
        """Day-independent identity (P', S, T)."""
        return (self.prefix, self.delegator_asn, self.delegatee_asn)

    @property
    def delegated_addresses(self) -> int:
        return self.prefix.num_addresses


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


@dataclass(frozen=True)
class RdapDelegation:
    """One registered delegation extracted via RDAP (§4)."""

    child_first: int
    child_last: int
    child_handle: str
    parent_handle: str
    status: str

    @property
    def addresses(self) -> int:
        return self.child_last - self.child_first + 1

    def prefixes(self) -> List[IPv4Prefix]:
        return IPv4Prefix.from_range(self.child_first, self.child_last)
