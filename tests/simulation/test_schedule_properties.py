"""``AnnouncementSchedule`` against ``DelegationSpec.announced_on``.

The schedule caches the window-only mask of the epoch (the dates
between two window boundaries) it last served, patches it forward
across boundaries and rebuilds it when asked for an earlier epoch.
Whatever order days are asked in, every row must still read exactly
``spec is None or spec.announced_on(date)``.  Drawn specs mix
open-ended and closed windows (empty and inverted ones included) with
and without on-off cycles; the days asked for sit on and next to every
window boundary, plus drawn days, visited ascending, descending and
shuffled.
"""

import datetime
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase.prefix import IPv4Prefix
from repro.simulation import World, small_scenario
from repro.simulation.delegation_plan import (
    AnnouncementSchedule, DelegationSpec, OnOffPattern,
)

D = datetime.date

#: Window dates are drawn as offsets from here.
_BASE = D(2020, 1, 1).toordinal()
_PREFIX = IPv4Prefix.parse("101.100.0.0/24")
_COVER = IPv4Prefix.parse("101.100.0.0/16")


@st.composite
def _onoff(draw):
    period = draw(st.integers(2, 20))
    return OnOffPattern(
        period,
        draw(st.integers(1, period - 1)),
        draw(st.integers(0, period - 1)),
    )


@st.composite
def _spec(draw):
    start = _BASE + draw(st.integers(0, 60))
    length = draw(st.one_of(st.none(), st.integers(-3, 60)))
    return DelegationSpec(
        prefix=_PREFIX,
        covering_prefix=_COVER,
        delegator=None,
        delegatee_asn=64500,
        delegatee_org=None,
        active_from=D.fromordinal(start),
        active_until=(
            None if length is None else D.fromordinal(start + length)
        ),
        onoff=draw(st.one_of(st.none(), _onoff())),
        rdap_registered=False,
        intra_org=False,
    )


def _expected(specs, ordinal):
    date = D.fromordinal(ordinal)
    return [spec is None or spec.announced_on(date) for spec in specs]


def _boundary_days(specs):
    """Every window boundary and the days either side of it."""
    days = set()
    for spec in specs:
        if spec is None:
            continue
        edges = [spec.active_from]
        if spec.active_until is not None:
            edges.append(spec.active_until)
        for edge in edges:
            ordinal = edge.toordinal()
            days.update((ordinal - 1, ordinal, ordinal + 1))
    return days


def _assert_schedule_matches(specs, ordinals):
    schedule = AnnouncementSchedule(specs)
    for ordinal in ordinals:
        assert list(schedule.announced(ordinal)) == \
            _expected(specs, ordinal), ordinal


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(st.one_of(st.none(), _spec()), max_size=25),
    extra=st.lists(st.integers(_BASE - 5, _BASE + 130), max_size=20),
    order=st.sampled_from(["ascending", "descending", "shuffled"]),
    shuffle_seed=st.integers(0, 2 ** 16),
)
def test_announced_matches_specs(specs, extra, order, shuffle_seed):
    days = sorted(_boundary_days(specs) | set(extra))
    if order == "descending":
        days.reverse()
    elif order == "shuffled":
        random.Random(shuffle_seed).shuffle(days)
    # Twice over: the second pass starts from the first one's cache.
    _assert_schedule_matches(specs, days + days)


def test_small_world_plan_every_day():
    # The rows a real plan produces, walked over its whole window, then
    # back to its start and forward again across many boundaries.
    config = small_scenario()
    specs = [None, None] + World(config).delegation_plan().specs
    first, last = config.bgp_start.toordinal(), config.bgp_end.toordinal()
    days = list(range(first - 2, last + 2))
    _assert_schedule_matches(specs, days + [last, first, last - 7, first])
