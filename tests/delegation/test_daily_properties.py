"""Property-based equivalence: the columnar day store vs. day sets.

:class:`repro.delegation.model.DailyDelegations` keeps each day as one
sorted packed column of ``(network, length, delegator, delegatee)``
quads; :mod:`tests.delegation.daily_oracle` keeps the set of
``(IPv4Prefix, S, T)`` keys it replaced.  On random days — empty days,
keys recorded twice, /0 and /32 prefixes, one prefix with two
delegatees — every reader must answer as the oracle does, whether the
days arrive as keys or as packed columns, and columnar gap filling must
equal the set-based oracle on sparse grids with sightings off the grid
and rival delegatees.
"""

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delegation.consistency import ConsistencyRule, fill_gaps
from repro.delegation.model import DailyDelegations, pack_quads
from repro.netbase.prefix import IPv4Prefix
from repro.obs.metrics import MetricsRegistry
from tests.delegation import consistency_oracle
from tests.delegation.daily_oracle import DailyDelegations as OracleDaily

START = datetime.date(2020, 1, 1)
BASE = IPv4Prefix.parse("10.0.0.0/16").network


def day(offset):
    return START + datetime.timedelta(days=offset)


#: Prefixes in a small window, so covers nest and prefixes repeat;
#: lengths reach both /0 and /32.
prefixes = st.builds(
    lambda offset, length: IPv4Prefix(BASE + offset, length, strict=False),
    st.integers(0, (1 << 16) - 1),
    st.integers(0, 32),
)
asns = st.integers(64500, 64503)
keys = st.tuples(prefixes, asns, asns)


@st.composite
def days(draw):
    """Day offset → keys, with empty days, a rival delegatee and
    keys recorded twice."""
    recorded = draw(st.dictionaries(
        st.integers(0, 20), st.lists(keys, max_size=8), max_size=8
    ))
    if recorded and draw(st.booleans()):
        offset = draw(st.sampled_from(sorted(recorded)))
        prefix, delegator, delegatee = draw(keys)
        recorded[offset] += [
            (prefix, delegator, delegatee),
            (prefix, delegator, delegatee + 1),
        ]
    return recorded


def build(recorded, twice):
    """The same days in the oracle and in two columnar stores: one fed
    keys (every day recorded ``twice`` times), one fed packed columns."""
    oracle = OracleDaily()
    columnar = DailyDelegations()
    packed = DailyDelegations()
    for offset, day_keys in recorded.items():
        for _ in range(twice):
            oracle.record(day(offset), day_keys)
            columnar.record(day(offset), day_keys)
        packed.record_quads(day(offset), pack_quads(sorted({
            (prefix.network, prefix.length, delegator, delegatee)
            for prefix, delegator, delegatee in day_keys
        })))
    return oracle, columnar, packed


def readers(daily, date):
    return (
        daily.on(date),
        daily.count_on(date),
        daily.addresses_on(date),
        daily.prefixes_on(date),
        daily.length_distribution(date),
    )


class TestReadersMatchOracle:
    @settings(max_examples=200)
    @given(days(), st.integers(1, 2))
    def test_every_reader(self, recorded, twice):
        oracle, columnar, packed = build(recorded, twice)
        for store in (columnar, packed):
            assert store.dates() == oracle.dates()
            assert len(store) == len(oracle)
            assert store.timeline() == oracle.timeline()
            # Every recorded day, plus one never recorded.
            for date in oracle.dates() + [day(-1)]:
                assert readers(store, date) == readers(oracle, date)

    def test_whole_space_and_host_routes(self):
        everything = IPv4Prefix(0, 0)
        host = IPv4Prefix.parse("10.0.0.1/32")
        recorded = {0: [(everything, 1, 2), (host, 2, 3), (host, 2, 3)]}
        oracle, columnar, packed = build(recorded, 1)
        for store in (columnar, packed):
            assert readers(store, day(0)) == readers(oracle, day(0))
            assert store.addresses_on(day(0)) == 1 << 32
            assert store.length_distribution(day(0)) == {0: 0.5, 32: 0.5}


#: Observation grids over day offsets 0..29: the full daily grid, or
#: any non-empty subset of it.
grids = st.one_of(
    st.just(list(range(30))),
    st.sets(st.integers(0, 29), min_size=1).map(sorted),
)
#: Few prefixes and delegatees, so rivals (one prefix, two delegatees)
#: are common.
fill_keys = st.tuples(
    st.sampled_from([
        IPv4Prefix.parse("193.0.4.0/24"), IPv4Prefix.parse("193.0.0.0/22"),
    ]),
    st.integers(100, 101),
    st.integers(200, 202),
)


class TestFillMatchesOracle:
    @settings(max_examples=150)
    @given(
        grids,
        st.dictionaries(
            fill_keys,
            st.sets(st.integers(-4, 33), max_size=12),
            max_size=6,
        ),
        st.integers(1, 12),
    )
    def test_fill_gaps(self, grid, sightings, span):
        dates = [day(i) for i in grid]
        daily = DailyDelegations()
        for key, seen in sightings.items():
            for i in seen:
                daily.record(day(i), [key])
        rule = ConsistencyRule(span, 0)
        metrics, oracle_metrics = MetricsRegistry(), MetricsRegistry()
        filled = fill_gaps(daily, rule, dates, metrics=metrics)
        expected = consistency_oracle.fill_gaps(
            daily, rule, dates, metrics=oracle_metrics
        )
        assert filled.dates() == expected.dates()
        for date in expected.dates():
            assert filled.on(date) == expected.on(date)
            assert filled.count_on(date) == expected.count_on(date)
        assert metrics.counters() == oracle_metrics.counters()
