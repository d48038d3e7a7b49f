"""The packed day generator and aggregator against their object oracles.

``AnnouncementSource`` emits each day as packed columns and
``CollectorSystem.pair_table_for_day`` aggregates those columns with no
``Announcement`` objects.  The object-based generator and slot-loop
aggregator they replaced live in ``announce_oracle.py``.  For drawn
seeds, noise rates (1.0 included) and dates, and for sampled paper- and
internet-scale days:

- the day iterates as exactly the oracle's announcements, in order and
  in every field;
- the day's ``PairTable`` equals the oracle aggregation in all four
  columns, whether the aggregator reads the packed day or a plain list.

Fixed cases pin every noise branch that changes which ``rng`` draws
follow, or how rows merge.
"""

import datetime
import functools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.message import Announcement
from repro.bgp.stream import RouteStream, date_range
from repro.netbase.prefix import IPv4Prefix
from repro.simulation import (
    World, internet_scenario, paper_scenario, small_scenario,
)
from repro.simulation.announce import AnnouncementSource
from tests.simulation.announce_oracle import (
    ReferenceAnnouncementSource, reference_pair_table,
)

D = datetime.date

#: The small scenario's BGP window, padded on both sides: before it no
#: spec is active, after it the open-ended ones still are.
_WINDOW = (D(2019, 12, 1), D(2020, 4, 30))

#: A monitor AS no collector has, so it owns no visibility bit.
_UNKNOWN_MONITOR = 4_200_000_000


@functools.lru_cache(maxsize=None)
def _small_world(seed):
    return World(small_scenario(seed=seed))


def _sources(world, rates, lirs=None, monitors=None):
    """The packed source and its oracle over the same world inputs."""
    hijack, as_set, moas = rates
    args = (
        world.config.seed,
        world.lirs() if lirs is None else lirs,
        world.customers(),
        world.delegation_plan(),
        world.monitors() if monitors is None else monitors,
    )
    kwargs = dict(hijack_rate=hijack, as_set_rate=as_set, moas_rate=moas)
    return (
        AnnouncementSource(*args, **kwargs),
        ReferenceAnnouncementSource(*args, **kwargs),
    )


def _columns(table):
    return (
        list(table.keys), list(table.origins),
        list(table.flags), list(table.monitor_counts),
    )


def _assert_day_matches(system, packed, oracle, date):
    """The packed day and its table equal the oracle's; returns the
    oracle's announcements and table for case-specific checks."""
    expected = oracle(date)
    day = packed(date)
    assert len(day) == len(expected)
    assert list(day) == expected
    reference = reference_pair_table(system, expected)
    assert _columns(system.pair_table_for_day(day)) == _columns(reference)
    assert _columns(system.pair_table_for_day(expected)) == _columns(
        reference
    )
    return expected, reference


_rates = st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=7),
    rates=st.tuples(_rates, _rates, _rates),
    date=st.dates(min_value=_WINDOW[0], max_value=_WINDOW[1]),
)
@example(seed=42, rates=(1.0, 1.0, 1.0), date=D(2020, 1, 15))
@example(seed=42, rates=(0.0, 0.0, 0.0), date=D(2020, 1, 15))
def test_small_days_match_oracle(seed, rates, date):
    world = _small_world(seed)
    packed, oracle = _sources(world, rates)
    _assert_day_matches(world.collector_system(), packed, oracle, date)


def _world_sources(world):
    """The world's own source and an oracle with the same arguments."""
    config = world.config
    oracle = ReferenceAnnouncementSource(
        config.seed, world.lirs(), world.customers(),
        world.delegation_plan(), world.monitors(),
        hijack_rate=config.hijack_rate, as_set_rate=config.as_set_rate,
    )
    return world.announcement_source(), oracle


@pytest.mark.parametrize(
    "factory, seed, step_days",
    [
        (paper_scenario, 3, 29),
        (paper_scenario, 42, 29),
        (internet_scenario, 3, 147),
    ],
    ids=["paper-3", "paper-42", "internet-3"],
)
def test_sampled_days_match_oracle(factory, seed, step_days):
    world = World(factory(seed=seed))
    config = world.config
    packed, oracle = _world_sources(world)
    system = world.collector_system()
    for date in date_range(config.bgp_start, config.bgp_end, step_days):
        _assert_day_matches(system, packed, oracle, date)


def test_pair_table_on_builds_no_announcement(monkeypatch):
    world = _small_world(42)
    packed, _oracle = _sources(world, (1.0, 1.0, 1.0))
    stream = RouteStream(world.collector_system(), source=packed)
    built = []
    post_init = Announcement.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Announcement, "__post_init__", counted)
    dates = list(date_range(D(2020, 1, 1), D(2020, 1, 8)))
    for date in dates:
        assert stream.pair_table_on(date)
    assert built == []
    # Iterating a day (the archive path) still builds them.
    assert len(list(packed(dates[0]))) == len(built) > 0


class TestNoiseBranches:
    """One fixed day per noise branch, small world seed 42."""

    @pytest.fixture(scope="class")
    def world(self):
        return _small_world(42)

    @pytest.fixture(scope="class")
    def steady_spec(self, world):
        """A /24 spec announced every day from the window's start."""
        config = world.config
        return next(
            spec for spec in world.delegation_plan().specs
            if spec.prefix.length == 24 and spec.onoff is None
            and spec.active_from == config.bgp_start
            and spec.active_until is None
        )

    def _check(self, world, date, rates, **inputs):
        packed, oracle = _sources(world, rates, **inputs)
        return _assert_day_matches(
            world.collector_system(), packed, oracle, date
        )

    def test_victim_longer_than_23_draws_no_hijack(self, world, steady_spec):
        # The only holding is a /24: no /24, hijacker or sample draw,
        # so the AS_SET and MOAS draws come earlier in the stream.  The
        # holding repeats a spec's key, so two rows share it.
        lirs = [replace(world.lirs()[0], holdings=[steady_spec.prefix])]
        announcements, table = self._check(
            world, D(2020, 1, 15), (1.0, 1.0, 1.0), lirs=lirs
        )
        assert not any(
            a.restricted_to_monitors is not None for a in announcements
        )
        rows = {prefix: origin for prefix, origin, _n in table.rows()}
        assert rows[steady_spec.prefix] is None

    def test_holding_sharing_an_off_spec_key_stays_unique(self, world):
        # Only selected rows of a shared key fold in: on the spec's off
        # day the holding is that prefix's sole origin.
        config = world.config
        spec, date = next(
            (spec, date)
            for spec in world.delegation_plan().specs
            if spec.prefix.length == 24 and spec.onoff is not None
            for date in date_range(config.bgp_start, config.bgp_end)
            if spec.active_on(date) and not spec.announced_on(date)
        )
        lir = world.lirs()[0]
        lirs = [replace(lir, holdings=[spec.prefix])]
        _announcements, table = self._check(
            world, date, (0.0, 0.0, 0.0), lirs=lirs
        )
        rows = {prefix: origin for prefix, origin, _n in table.rows()}
        assert rows[spec.prefix] == lir.primary_asn

    def test_hijack_onto_active_spec_merges(self, world, steady_spec):
        # A /23 holding around an announced /24 spec: the hijacked /24
        # is that spec, so its masks merge and its origin is no longer
        # unique.
        supernet = IPv4Prefix(steady_spec.prefix.network & ~0x1FF, 23)
        lirs = [replace(world.lirs()[0], holdings=[supernet])]
        announcements, table = self._check(
            world, D(2020, 1, 1), (1.0, 0.0, 0.0), lirs=lirs
        )
        hijack = [
            a for a in announcements if a.restricted_to_monitors is not None
        ]
        assert [a.prefix for a in hijack] == [steady_spec.prefix]
        rows = {prefix: origin for prefix, origin, _n in table.rows()}
        assert rows[steady_spec.prefix] is None

    def test_as_set_on_unannounced_spec_spends_a_draw(self, world):
        announcements, _table = self._check(
            world, D(2020, 1, 4), (0.0, 1.0, 0.0)
        )
        assert not any(a.as_set_origin for a in announcements)

    def test_moas_with_other_equal_to_delegatee(self, world):
        date = D(2020, 4, 1)
        announcements, _table = self._check(world, date, (0.0, 0.0, 1.0))
        quiet, _oracle = _sources(world, (0.0, 0.0, 0.0))
        assert len(announcements) == len(quiet(date))

    def test_moas_without_active_spec_draws_nothing(self, world):
        date = world.config.bgp_start - datetime.timedelta(days=1)
        announcements, _table = self._check(world, date, (0.0, 0.0, 1.0))
        holdings = sum(len(org.holdings) for org in world.lirs())
        assert len(announcements) == holdings

    def test_restriction_without_visibility_bit_is_invisible(self, world):
        announcements, table = self._check(
            world, D(2020, 1, 15), (1.0, 0.0, 0.0),
            monitors=frozenset({_UNKNOWN_MONITOR}),
        )
        hijack = [
            a for a in announcements if a.restricted_to_monitors is not None
        ]
        assert len(hijack) == 1
        assert hijack[0].prefix not in {
            prefix for prefix, _origin, _n in table.rows()
        }
