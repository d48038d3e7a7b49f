"""Delegation record types.

A *BGP delegation* :math:`P'_{ST}` exists when delegator AS *S*
originates prefix *P* and delegatee AS *T* originates a more-specific
sub-prefix *P'* (§4).  An *RDAP delegation* is a registered
parent/child inetnum pair with different registrants.
"""

from __future__ import annotations

import datetime
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.netbase.prefix import IPv4Prefix
from repro.netbase.prefixset import covered_addresses

#: The identity of a BGP delegation across days.
DelegationKey = Tuple[IPv4Prefix, int, int]

#: The same identity packed: ``(network, length, delegator, delegatee)``.
Quad = Tuple[int, int, int, int]

_EMPTY = array("I")


def iter_quads(words) -> Iterator[Quad]:
    """The quads of a flat u32 column, in column order."""
    return zip(words[0::4], words[1::4], words[2::4], words[3::4])


def pack_quads(quads: Iterable[Quad]) -> array:
    """A flat u32 column holding ``quads`` in the order given."""
    return array("I", chain.from_iterable(quads))


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


class DailyDelegations:
    """Per-day delegation columns, plus address accounting.

    Each observed day holds one ``array("I")`` of flat ``(network,
    length, delegator, delegatee)`` quads, sorted and free of
    duplicates — the same words as the body of the runner's per-day
    RPD2 payload.  Packed-key order is :class:`IPv4Prefix` order, so
    the sorted quads are the day's ``(P', S, T)`` keys in sorted
    order.  The counting readers work on the words; :meth:`on`,
    :meth:`prefixes_on` and :meth:`timeline` build objects for the
    callers that ask for them.
    """

    def __init__(self) -> None:
        self._columns: Dict[datetime.date, array] = {}

    def record(
        self, date: datetime.date, keys: Iterable[DelegationKey]
    ) -> None:
        """Add ``(IPv4Prefix, S, T)`` keys to ``date`` (a set union)."""
        self.record_quads(date, pack_quads(sorted({
            (prefix.network, prefix.length, delegator, delegatee)
            for prefix, delegator, delegatee in keys
        })))

    def record_quads(self, date: datetime.date, words) -> None:
        """Add one packed column to ``date``.

        ``words`` is any buffer of native-order u32 words holding
        sorted, duplicate-free quads: a kernel column, or a view of an
        RPD2 body.  A new day costs one buffer copy; a day recorded
        before takes the set union.
        """
        column = array("I")
        column.frombytes(memoryview(words).cast("B"))
        existing = self._columns.get(date)
        if existing is not None:
            column = pack_quads(sorted(
                set(iter_quads(existing)) | set(iter_quads(column))
            ))
        self._columns[date] = column

    def column(self, date: datetime.date) -> array:
        """The packed quads of ``date`` (empty when not recorded).

        The array is the store's own: read it, never change it.
        """
        return self._columns.get(date, _EMPTY)

    def dates(self) -> List[datetime.date]:
        return sorted(self._columns)

    def count_on(self, date: datetime.date) -> int:
        return len(self.column(date)) // 4

    def addresses_on(self, date: datetime.date) -> int:
        """Distinct delegated addresses on ``date``.

        Delegation keys can share prefixes (the same P' delegated by
        different inferred delegators on MOAS-ish corner cases); we
        count distinct prefixes, in one sweep over the column's
        prefixes, which are already in packed-key order.
        """
        words = self.column(date)
        return covered_addresses(words[0::4], words[1::4])

    def length_distribution(self, date: datetime.date) -> Dict[int, float]:
        """Fraction of delegations per prefix length on ``date``."""
        words = self.column(date)
        if not words:
            return {}
        counts = Counter(words[1::4])
        total = len(words) // 4
        return {length: counts[length] / total for length in sorted(counts)}

    def on(self, date: datetime.date) -> Set[DelegationKey]:
        return {
            (IPv4Prefix(network, length), delegator, delegatee)
            for network, length, delegator, delegatee
            in iter_quads(self.column(date))
        }

    def prefixes_on(self, date: datetime.date) -> Set[IPv4Prefix]:
        words = self.column(date)
        return {
            IPv4Prefix(network, length)
            for network, length in zip(words[0::4], words[1::4])
        }

    def sightings(
        self, labels: Optional[Sequence] = None
    ) -> Dict[Quad, list]:
        """Quad → the days it was observed on, in date order.

        One strided pass over the columns.  Each day is named by its
        date, or by ``labels[i]`` for the i-th of :meth:`dates`.
        """
        dates = self.dates()
        if labels is None:
            labels = dates
        sightings: Dict[Quad, list] = defaultdict(list)
        # Runs in C: look each quad's list up (made on first sight) and
        # append the day's label to it.
        seen = sightings.__getitem__
        add = list.append
        for date, label in zip(dates, labels):
            deque(map(
                add, map(seen, iter_quads(self._columns[date])),
                repeat(label),
            ), maxlen=0)
        return dict(sightings)

    def timeline(self) -> Dict[DelegationKey, List[datetime.date]]:
        """Key → sorted dates on which the delegation was observed."""
        return {
            (IPv4Prefix(network, length), delegator, delegatee): seen
            for (network, length, delegator, delegatee), seen
            in self.sightings().items()
        }

    def __len__(self) -> int:
        return len(self._columns)


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
