"""Property-based oracle for the one-pass monitor visibility table.

``PropagationModel.visible_monitor_masks`` computes, for every AS at
once, which monitors its routes reach; the daily aggregators read
nothing else.  The per-origin BFS behind ``receivers`` (which archives
still use for real AS paths) is the oracle: on random topologies —
multi-homing, peering, provider cycles, monitors that originate
routes, monitors and origins outside the topology — every AS's mask
must equal ``monitors & (receivers(o) | {o})``, and the collector's
pair table must equal the record-level aggregation of the
materialized RIBs.
"""

import datetime

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import Announcement
from repro.bgp.propagation import PropagationModel
from repro.bgp.stream import prefix_origin_pairs
from repro.bgp.topology import ASTopology
from repro.netbase.prefix import IPv4Prefix
from tests.bgp.pair_counts_oracle import pair_counts_for_day

#: ASNs never added to a drawn topology (outside monitors / origins).
_OUTSIDE = (900, 901)


@st.composite
def topologies(draw):
    size = draw(st.integers(min_value=1, max_value=9))
    asns = list(range(1, size + 1))
    topology = ASTopology()
    for asn in asns:
        topology.add_as(asn)
    pairs = [(a, b) for a in asns for b in asns if a != b]
    if pairs:
        # Any ordered pair may be a customer->provider edge, so
        # multi-homing and provider cycles (a->b->...->a) both occur.
        for customer, provider in draw(
            st.lists(st.sampled_from(pairs), max_size=16)
        ):
            if provider not in topology.peers_of(customer):
                topology.add_customer_provider(customer, provider)
        for left, right in draw(
            st.lists(st.sampled_from(pairs), max_size=6)
        ):
            if (right not in topology.providers_of(left)
                    and left not in topology.providers_of(right)):
                topology.add_peering(left, right)
    return topology


@st.composite
def systems(draw):
    topology = draw(topologies())
    candidates = sorted(topology.asns) + list(_OUTSIDE)
    monitors = draw(
        st.lists(st.sampled_from(candidates), min_size=1, max_size=8,
                 unique=True)
    )
    split = draw(st.integers(min_value=0, max_value=len(monitors) - 1))
    collectors = [Collector("rrc00", monitors[:split + 1])]
    if split + 1 < len(monitors):
        collectors.append(Collector("route-views2", monitors[split + 1:]))
    return CollectorSystem(collectors, PropagationModel(topology))


def _bits(monitors):
    return {m: 1 << i for i, m in enumerate(sorted(monitors))}


def _as_set(mask, bits):
    return {monitor for monitor, bit in bits.items() if mask & bit}


def _assert_masks_match_bfs(system):
    propagation = system.propagation
    monitors = system.all_monitors()
    bits = _bits(monitors)
    masks = propagation.visible_monitor_masks(bits)
    assert set(masks) == set(propagation.topology.asns)
    for origin in propagation.topology.asns:
        expected = monitors & (propagation.receivers(origin) | {origin})
        assert _as_set(masks[origin], bits) == expected, origin


@given(systems())
def test_masks_equal_bfs_receivers(system):
    _assert_masks_match_bfs(system)


_PREFIXES = [
    IPv4Prefix.parse(text)
    for text in ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.0.2.0/24")
]


@st.composite
def days(draw):
    system = draw(systems())
    origins = sorted(system.propagation.topology.asns) + list(_OUTSIDE)
    restrictions = st.one_of(
        st.none(),
        st.frozensets(
            st.sampled_from(sorted(system.all_monitors()) + [902]),
            max_size=4,
        ),
    )
    announcements = draw(st.lists(
        st.builds(
            Announcement,
            st.sampled_from(_PREFIXES),
            st.sampled_from(origins),
            as_set_origin=st.booleans(),
            restricted_to_monitors=restrictions,
        ),
        max_size=12,
    ))
    return system, announcements


@given(days())
def test_pair_table_equals_record_path(day):
    """The mask-based aggregators against the BFS record path."""
    system, announcements = day
    records = system.records_for_day(announcements, datetime.date(2020, 1, 1))
    expected = sorted(
        (prefix, origins.sole_origin() if origins.is_unique else None, count)
        for prefix, (origins, count) in prefix_origin_pairs(records).items()
    )
    assert sorted(system.pair_table_for_day(announcements).rows()) == expected
    counts = pair_counts_for_day(system, announcements)
    assert sorted(
        (prefix, origins.sole_origin() if origins.is_unique else None, count)
        for prefix, (origins, count) in counts.items()
    ) == expected


def test_provider_cycle():
    # 1 -> 2 -> 3 -> 1 is a provider cycle; 4 peers with 3 and has a
    # customer 5.  Every AS in the cycle is uphill of every other.
    topology = ASTopology()
    for asn in range(1, 6):
        topology.add_as(asn)
    topology.add_customer_provider(1, 2)
    topology.add_customer_provider(2, 3)
    topology.add_customer_provider(3, 1)
    topology.add_peering(3, 4)
    topology.add_customer_provider(5, 4)
    system = CollectorSystem(
        [Collector("rrc00", [1, 5])], PropagationModel(topology)
    )
    _assert_masks_match_bfs(system)
    bits = _bits(system.all_monitors())
    masks = system.propagation.visible_monitor_masks(bits)
    assert _as_set(masks[2], bits) == {1, 5}
    # 5's route climbs to 4 and crosses the 3-4 peering, then may
    # only go down: 3's customer 2, then 2's customer 1.
    assert _as_set(masks[5], bits) == {1, 5}


def test_internet_scenario_every_as():
    from repro.simulation import World, internet_scenario

    _assert_masks_match_bfs(World(internet_scenario(seed=3)).collector_system())
