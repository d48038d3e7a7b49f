"""Property-based equivalence: the packed whois index vs. the trie.

:class:`repro.whois.database.WhoisDatabase` must answer every store and
hierarchy query as :mod:`tests.whois.whois_oracle`, the trie-indexed
database it replaced.  Ranges are drawn in a small window on a coarse
grid, so random sequences are dense in the cases where the two indexes
could disagree: non-CIDR ranges that share a primary prefix, overlapping
ranges that do not nest (the trie's shortest-first, insertion-order
tie-break decides their parents), exact duplicates, removals that empty
a bucket, and ranges as wide as the whole address space.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObjectNotFoundError, WhoisError
from repro.netbase.prefix import IPv4Prefix
from repro.whois.database import WhoisDatabase
from repro.whois.inetnum import InetnumObject, InetnumStatus
from tests.whois.whois_oracle import WhoisDatabase as OracleDatabase
from tests.whois.whois_oracle import primary_prefix

BASE = IPv4Prefix.parse("10.0.0.0/16").network

#: Range ends on a 64-address grid in a 4,096-address window, or the
#: two ends of the address space.
ends = st.one_of(
    st.integers(0, 63).map(lambda slot: BASE + (slot << 6)),
    st.sampled_from([0, BASE + 4096, 0xFFFFFFFF]),
)


@st.composite
def ranges(draw):
    first, last = sorted((draw(ends), draw(ends)))
    if draw(st.booleans()):
        # Close on a grid boundary: CIDR blocks and odd spans alike.
        last = max(first, last - 1)
    return first, last


def _inetnum(first, last, serial):
    return InetnumObject(
        first=first,
        last=last,
        netname=f"NET-{serial}",
        status=InetnumStatus.ASSIGNED_PA,
        org_handle="ORG-A",
        admin_handle="AC-1",
    )


def _outcome(call):
    try:
        return call()
    except (WhoisError, ObjectNotFoundError) as exc:
        return type(exc)


#: A step adds a fresh range, re-adds a stored one (a duplicate) or
#: removes one, stored or not.
steps = st.lists(
    st.tuples(st.sampled_from(["add", "add", "add", "dup", "remove"]),
              ranges(), st.integers(0, 1 << 16)),
    max_size=40,
)

#: Query prefixes in and around the window, /0 to /32.
queries = st.lists(
    st.builds(
        lambda offset, length: IPv4Prefix(BASE + offset, length,
                                          strict=False),
        st.integers(0, 8191),
        st.integers(0, 32),
    ),
    max_size=12,
)


def _check_equal(database, oracle, probes):
    assert len(database) == len(oracle)
    assert list(database.inetnums()) == list(oracle.inetnums())
    stored = list(oracle.inetnums())
    for obj in stored:
        assert obj in database
        assert database.parent_of(obj) == oracle.parent_of(obj)
        assert database.children_of(obj) == oracle.children_of(obj)
    for prefix in probes:
        assert database.most_specific_containing(prefix) == (
            oracle.most_specific_containing(prefix))
        assert database.find_exact_prefix(prefix) == (
            oracle.find_exact_prefix(prefix))
    for obj in stored[:4]:
        # Queries for ranges that are not stored (or no longer are).
        ghost = _inetnum(obj.first, obj.last, "ghost")
        assert database.parent_of(ghost) == oracle.parent_of(ghost)
        assert database.children_of(ghost) == oracle.children_of(ghost)


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps, queries)
    def test_random_sequences(self, sequence, probes):
        database, oracle = WhoisDatabase(), OracleDatabase()
        stored = []
        for serial, (op, (first, last), pick) in enumerate(sequence):
            if op == "add" or not stored:
                obj = _inetnum(first, last, serial)
            else:
                obj = stored[pick % len(stored)]
            if op == "remove":
                got = _outcome(lambda: database.remove_inetnum(obj))
                assert got == _outcome(lambda: oracle.remove_inetnum(obj))
                if obj in stored:
                    stored.remove(obj)
            else:
                got = _outcome(lambda: database.add_inetnum(obj))
                assert got == _outcome(lambda: oracle.add_inetnum(obj))
                if got is None:
                    stored.append(obj)
            _check_equal(database, oracle, probes)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ranges(), max_size=30), queries)
    def test_shared_primary_prefixes(self, spans, probes):
        # Every range cut in two at a grid point: siblings share a
        # primary prefix with each other and with their union.
        database, oracle = WhoisDatabase(), OracleDatabase()
        for serial, (first, last) in enumerate(spans):
            pieces = [(first, last)]
            if last - first > 64:
                cut = first + 64
                pieces += [(first, cut - 1), (cut, last)]
            for index, (low, high) in enumerate(pieces):
                obj = _inetnum(low, high, f"{serial}.{index}")
                got = _outcome(lambda: database.add_inetnum(obj))
                assert got == _outcome(lambda: oracle.add_inetnum(obj))
        _check_equal(database, oracle, probes)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    ranges(),
    st.lists(st.integers(0, 0xFFFFFFFF), min_size=2, max_size=2).map(sorted),
))
def test_primary_prefix_is_the_smallest_covering_prefix(span):
    first, last = span
    obj = _inetnum(first, last, 0)
    primary = obj.primary_prefix()
    assert primary == primary_prefix(obj)
    assert primary.network <= first and last <= primary.broadcast
    if primary.length < 32:
        low, high = primary.halves()
        assert not (low.network <= first and last <= low.broadcast)
        assert not (high.network <= first and last <= high.broadcast)
    assert obj.is_cidr_aligned == (
        len(IPv4Prefix.from_range(first, last)) == 1)
