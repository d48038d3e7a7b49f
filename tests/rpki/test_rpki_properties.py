"""Property-based equivalence: RPKI delegation extraction vs. a trie walk.

``RoaDatabase.delegations_on`` finds each ROA's most-specific strict
cover with one ``nearest_strict_covers`` pass over sorted packed keys.
The reference below is the per-ROA ``PrefixTrie.covering`` walk it
replaced; the two must return the same list — same delegations, same
order — on snapshots with nested covers, same-AS covers, several ASNs
on one prefix, duplicate ROAs that differ only in maxLength, and
prefixes with no cover at all.
"""

import datetime
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase.prefix import IPv4Prefix
from repro.netbase.trie import PrefixTrie
from repro.rpki.database import RoaDatabase, RpkiDelegation
from repro.rpki.roa import Roa

D = datetime.date


def reference_delegations(roas) -> List[RpkiDelegation]:
    """The trie walk: for every ROA, the ASNs on its most-specific
    strictly-covering prefix, minus the ROA's own AS."""
    index: PrefixTrie[List[int]] = PrefixTrie()
    for roa in roas:
        bucket = index.get(roa.prefix)
        if bucket is None:
            bucket = []
            index.insert(roa.prefix, bucket)
        bucket.append(roa.asn)
    delegations: List[RpkiDelegation] = []
    seen = set()
    for roa in roas:
        best_asns: Optional[List[int]] = None
        for covering_prefix, asns in index.covering(roa.prefix):
            if covering_prefix.length < roa.prefix.length:
                best_asns = asns
        if best_asns is None:
            continue
        for delegator in best_asns:
            if delegator == roa.asn:
                continue
            delegation = RpkiDelegation(
                prefix=roa.prefix,
                delegator_asn=delegator,
                delegatee_asn=roa.asn,
            )
            if delegation.key() in seen:
                continue
            seen.add(delegation.key())
            delegations.append(delegation)
    delegations.sort(key=lambda d: d.key())
    return delegations


# A small address window and AS pool, so covers nest, ASNs repeat on
# one prefix and delegator == delegatee happens often.
BASE = IPv4Prefix.parse("10.0.0.0/12").network
asns = st.integers(min_value=64500, max_value=64505)


@st.composite
def roas(draw):
    length = draw(st.integers(min_value=8, max_value=32))
    offset = draw(st.integers(min_value=0, max_value=(1 << 20) - 1))
    prefix = IPv4Prefix(BASE + offset, length, strict=False)
    max_length = draw(st.integers(min_value=prefix.length, max_value=32))
    return Roa(prefix, draw(asns), max_length)


@st.composite
def snapshots(draw):
    """A ROA set with nested covers, shared prefixes and stragglers."""
    chosen = draw(st.lists(roas(), max_size=40))
    for _ in range(draw(st.integers(min_value=0, max_value=15))):
        if not chosen:
            break
        member = draw(st.sampled_from(chosen))
        kind = draw(st.sampled_from(["nested", "same_prefix", "cover"]))
        if kind == "nested" and member.prefix.length < 32:
            length = draw(st.integers(member.prefix.length + 1, 32))
            offset = draw(st.integers(0, member.prefix.num_addresses - 1))
            prefix = IPv4Prefix(
                member.prefix.network + offset, length, strict=False
            )
        elif kind == "cover" and member.prefix.length > 0:
            prefix = member.prefix.supernet(
                draw(st.integers(0, member.prefix.length - 1))
            )
        else:
            prefix = member.prefix
        max_length = draw(st.integers(prefix.length, 32))
        chosen.append(Roa(prefix, draw(asns), max_length))
    return frozenset(chosen)


class TestDelegationsMatchTrieWalk:
    @settings(max_examples=300)
    @given(snapshots())
    def test_delegations_on(self, snapshot):
        database = RoaDatabase()
        database.add_snapshot(D(2020, 1, 1), snapshot)
        assert database.delegations_on(D(2020, 1, 1)) == (
            reference_delegations(snapshot)
        )

    @settings(max_examples=50)
    @given(st.lists(snapshots(), min_size=1, max_size=4))
    def test_delegation_timeline(self, days):
        database = RoaDatabase()
        expected = {}
        for offset, snapshot in enumerate(days):
            date = D(2020, 1, 1) + datetime.timedelta(days=offset)
            database.add_snapshot(date, snapshot)
            for delegation in reference_delegations(snapshot):
                expected.setdefault(delegation.key(), []).append(date)
        assert database.delegation_timeline() == expected

    @settings(max_examples=50)
    @given(
        st.lists(snapshots(), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), min_size=1, max_size=12),
        st.booleans(),
    )
    def test_timeline_over_repeated_snapshots(self, distinct, order, copy):
        # Snapshots recur and interleave (a, b, a, a, c, b, ...); with
        # ``copy`` a repeat is an equal set, not the same object.
        database = RoaDatabase()
        for offset, pick in enumerate(order):
            snapshot = distinct[pick % len(distinct)]
            if copy:
                snapshot = frozenset(list(snapshot))
            database.add_snapshot(
                D(2020, 1, 1) + datetime.timedelta(days=offset), snapshot
            )
        walked = {}
        for date in database.dates():
            for delegation in database.delegations_on(date):
                walked.setdefault(delegation.key(), []).append(date)
        assert database.delegation_timeline() == walked


class TestCornerCases:
    def _extract(self, rows):
        roas = [
            Roa(IPv4Prefix.parse(text), asn, max_length)
            for text, asn, max_length in rows
        ]
        database = RoaDatabase()
        database.add_snapshot(D(2020, 1, 1), roas)
        found = database.delegations_on(D(2020, 1, 1))
        assert found == reference_delegations(frozenset(roas))
        return [(str(d.prefix), d.delegator_asn, d.delegatee_asn)
                for d in found]

    def test_nearest_cover_wins_over_outer(self):
        assert self._extract([
            ("10.0.0.0/8", 1, 8),
            ("10.1.0.0/16", 2, 16),
            ("10.1.1.0/24", 3, 24),
        ]) == [("10.1.0.0/16", 1, 2), ("10.1.1.0/24", 2, 3)]

    def test_same_as_cover_hides_outer_cover(self):
        # The /16's only AS is the /24's: no delegation, and no
        # fallback to the /8.
        assert self._extract([
            ("10.0.0.0/8", 1, 8),
            ("10.1.0.0/16", 2, 16),
            ("10.1.1.0/24", 2, 24),
        ]) == [("10.1.0.0/16", 1, 2)]

    def test_several_asns_on_cover_and_covered(self):
        assert self._extract([
            ("10.0.0.0/8", 1, 8),
            ("10.0.0.0/8", 2, 8),
            ("10.1.0.0/16", 2, 16),
            ("10.1.0.0/16", 3, 24),
        ]) == [
            ("10.1.0.0/16", 1, 2),
            ("10.1.0.0/16", 1, 3),
            ("10.1.0.0/16", 2, 3),
        ]

    def test_maxlength_duplicates_dedup(self):
        assert self._extract([
            ("10.0.0.0/8", 1, 8),
            ("10.0.0.0/8", 1, 16),
            ("10.1.0.0/16", 2, 16),
            ("10.1.0.0/16", 2, 24),
        ]) == [("10.1.0.0/16", 1, 2)]

    def test_no_cover(self):
        assert self._extract([
            ("10.0.0.0/16", 1, 16),
            ("10.1.0.0/16", 2, 16),
            ("0.0.0.0/0", 3, 0),
        ]) == [("10.0.0.0/16", 3, 1), ("10.1.0.0/16", 3, 2)]
        assert self._extract([("10.0.0.0/16", 1, 16)]) == []
