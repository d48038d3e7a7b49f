"""Sets of IPv4 prefixes with aggregation and coverage semantics.

A :class:`PrefixSet` answers the two questions the measurement pipelines
keep asking:

- *is this address/prefix inside any block I hold?* (bogon filtering,
  registry holdings, delegation matching), and
- *how many distinct addresses do my blocks cover?* (market-size
  estimation, Fig. 6's delegated-address counts) — computed on the
  aggregated form so overlapping blocks are not double counted.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.netbase.lpm import _HOST_BITS
from repro.netbase.prefix import IPv4Prefix
from repro.netbase.trie import PrefixTrie


def aggregate(prefixes: Iterable[IPv4Prefix]) -> List[IPv4Prefix]:
    """Return the minimal equivalent list of prefixes.

    Removes prefixes covered by others and merges adjacent siblings,
    repeatedly, until a fixed point.  The result is sorted.

    >>> aggregate([IPv4Prefix.parse("10.0.0.0/25"),
    ...            IPv4Prefix.parse("10.0.0.128/25")])
    [IPv4Prefix('10.0.0.0/24')]
    """
    # Sort places covering prefixes immediately before covered ones.
    pending = sorted(set(prefixes))
    result: List[IPv4Prefix] = []
    for prefix in pending:
        if result and result[-1].covers(prefix):
            continue
        result.append(prefix)
        # Merge completed sibling pairs bottom-up.
        while len(result) >= 2:
            a, b = result[-2], result[-1]
            if a.length == b.length and a.length > 0 and a.sibling() == b:
                result[-2:] = [a.supernet()]
            else:
                break
    return result


def address_count(prefixes: Iterable[IPv4Prefix]) -> int:
    """Number of distinct addresses covered by ``prefixes``.

    Equal to ``sum(p.num_addresses for p in aggregate(prefixes))``, as
    one sweep over sorted packed ``(network << 6) | length`` keys (the
    :func:`repro.netbase.lpm.pack` order).  CIDR blocks are nested or
    disjoint and the sort puts every cover before what it covers, so a
    block starting at or before the end of the last counted block lies
    inside it; any other block is new space and is counted whole.

    >>> address_count([IPv4Prefix.parse("10.0.0.0/24"),
    ...                IPv4Prefix.parse("10.0.0.128/25"),
    ...                IPv4Prefix.parse("10.0.1.0/24")])
    512
    """
    keys = sorted({(p.network << 6) | p.length for p in prefixes})
    return covered_addresses(
        [key >> 6 for key in keys], [key & 0x3F for key in keys]
    )


def covered_addresses(
    networks: Iterable[int], lengths: Iterable[int]
) -> int:
    """:func:`address_count` of CIDR blocks already in packed-key order.

    ``networks`` and ``lengths`` are parallel; repeats are allowed.
    The packed delegation day columns are in this order by
    construction.
    """
    host_bits = _HOST_BITS
    total = 0
    end = -1
    for network, length in zip(networks, lengths):
        if network > end:
            end = network | host_bits[length]
            total += end - network + 1
    return total


def coverage_fraction(
    covered: Iterable[IPv4Prefix], covering: Iterable[IPv4Prefix]
) -> float:
    """Fraction of the addresses in ``covered`` that fall inside
    ``covering``.

    This is the estimator behind the paper's headline §4 comparison
    ("BGP-delegations cover only ~1.85 % of the RDAP-delegated IPs").
    Returns 0.0 when ``covered`` is empty.
    """
    base = aggregate(covered)
    total = sum(p.num_addresses for p in base)
    if total == 0:
        return 0.0
    other = PrefixSet(covering)
    overlap = 0
    for prefix in base:
        overlap += other.overlap_addresses(prefix)
    return overlap / total


class PrefixSet:
    """A mutable set of IPv4 prefixes.

    Membership (``in``) asks whether an address or prefix is *covered*
    by the set, which is almost always the question measurement code
    needs (e.g. "is this route bogon space?").  Use :meth:`has_exact`
    for literal membership.
    """

    __slots__ = ("_trie",)

    def __init__(self, prefixes: Optional[Iterable[IPv4Prefix]] = None):
        self._trie: PrefixTrie[bool] = PrefixTrie()
        if prefixes is not None:
            for prefix in prefixes:
                self.add(prefix)

    # -- mutation -----------------------------------------------------

    def add(self, prefix: IPv4Prefix) -> None:
        """Add ``prefix`` to the set."""
        self._trie.insert(prefix, True)

    def discard(self, prefix: IPv4Prefix) -> bool:
        """Remove an exact entry; return True if it was present."""
        return self._trie.delete(prefix)

    def update(self, prefixes: Iterable[IPv4Prefix]) -> None:
        """Add every prefix in ``prefixes``."""
        for prefix in prefixes:
            self.add(prefix)

    # -- queries --------------------------------------------------------

    def covers(self, item: "IPv4Prefix | int") -> bool:
        """True if some member covers the given prefix or address."""
        if isinstance(item, IPv4Prefix):
            probe = item
        else:
            probe = IPv4Prefix(int(item), 32)
        return self._trie.longest_match(probe) is not None

    def has_exact(self, prefix: IPv4Prefix) -> bool:
        """True if ``prefix`` itself is a member (not merely covered)."""
        return prefix in self._trie

    def covered_by(self, prefix: IPv4Prefix) -> Iterator[IPv4Prefix]:
        """Yield members equal to or inside ``prefix``."""
        for member, _flag in self._trie.covered(prefix):
            yield member

    def covering(self, prefix: IPv4Prefix) -> Iterator[IPv4Prefix]:
        """Yield members that cover ``prefix``, shortest first."""
        for member, _flag in self._trie.covering(prefix):
            yield member

    def overlap_addresses(self, prefix: IPv4Prefix) -> int:
        """Number of addresses of ``prefix`` covered by this set."""
        if self.covers(prefix):
            # Some member covers the whole block.
            return prefix.num_addresses
        inside = aggregate(self.covered_by(prefix))
        return sum(p.num_addresses for p in inside)

    def aggregated(self) -> List[IPv4Prefix]:
        """The minimal equivalent prefix list, sorted."""
        return aggregate(self)

    def address_count(self) -> int:
        """Number of distinct addresses covered by the set."""
        return address_count(self)

    # -- protocol --------------------------------------------------------

    def __contains__(self, item: "IPv4Prefix | int") -> bool:
        return self.covers(item)

    def __iter__(self) -> Iterator[IPv4Prefix]:
        return self._trie.keys()

    def __len__(self) -> int:
        return len(self._trie)

    def __bool__(self) -> bool:
        return bool(self._trie)

    def __repr__(self) -> str:
        return f"<PrefixSet with {len(self)} prefixes>"
