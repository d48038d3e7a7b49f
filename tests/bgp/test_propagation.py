"""Unit tests for valley-free propagation."""

import pytest

from repro.bgp.propagation import PropagationModel
from repro.bgp.topology import ASTopology, TopologyConfig
from repro.errors import BgpError


@pytest.fixture
def topology():
    """Hand-built hierarchy with a known valley::

        10 ===== 11          tier-1 peering
        |         |
        20       21          mids
        |  \\    |
        30  31   32          stubs (31 multihomed to 20 only)
    """
    t = ASTopology()
    for asn, tier in [(10, 1), (11, 1), (20, 2), (21, 2),
                      (30, 3), (31, 3), (32, 3)]:
        t.add_as(asn, tier=tier)
    t.add_peering(10, 11)
    t.add_customer_provider(20, 10)
    t.add_customer_provider(21, 11)
    t.add_customer_provider(30, 20)
    t.add_customer_provider(31, 20)
    t.add_customer_provider(32, 21)
    return t


@pytest.fixture
def model(topology):
    return PropagationModel(topology)


class TestReceivers:
    def test_stub_route_reaches_everyone(self, model):
        # Hierarchy is fully connected through the tier-1 peering.
        receivers = model.receivers(30)
        assert receivers == {10, 11, 20, 21, 31, 32}

    def test_origin_not_a_receiver(self, model):
        assert 30 not in model.receivers(30)

    def test_tier1_route_reaches_everyone(self, model):
        assert model.receivers(10) == {11, 20, 21, 30, 31, 32}

    def test_sees(self, model):
        assert model.sees(32, 30)
        assert model.sees(10, 31)

    def test_unknown_origin(self, model):
        with pytest.raises(BgpError):
            model.receivers(999)

    def test_valley_blocked(self):
        # Two stubs under different providers with NO tier-1 link:
        # routes must not valley through the unconnected mids.
        t = ASTopology()
        for asn in (20, 21, 30, 31):
            t.add_as(asn)
        t.add_customer_provider(30, 20)
        t.add_customer_provider(31, 21)
        model = PropagationModel(t)
        assert model.receivers(30) == {20}
        assert not model.sees(31, 30)

    def test_single_peering_hop_only(self):
        # a - b peer, b - c peer: a's routes reach b but NOT c
        t = ASTopology()
        for asn in (1, 2, 3):
            t.add_as(asn)
        t.add_peering(1, 2)
        t.add_peering(2, 3)
        model = PropagationModel(t)
        assert model.receivers(1) == {2}

    def test_peer_route_goes_down_to_customers(self):
        t = ASTopology()
        for asn in (1, 2, 3):
            t.add_as(asn)
        t.add_peering(1, 2)
        t.add_customer_provider(3, 2)  # 3 is customer of 2
        model = PropagationModel(t)
        assert model.receivers(1) == {2, 3}


class TestPaths:
    def test_direct_provider_path(self, model):
        path = model.path(30, 20)
        assert path is not None
        assert list(path.asns()) == [20, 30]

    def test_cross_hierarchy_path(self, model):
        path = model.path(30, 32)
        assert path is not None
        assert list(path.asns()) == [32, 21, 11, 10, 20, 30]

    def test_path_origin_is_last(self, model):
        path = model.path(31, 10)
        assert path is not None
        assert path.origin().sole_origin() == 31
        assert next(path.asns()) == 10

    def test_no_path_when_unreachable(self):
        t = ASTopology()
        t.add_as(1)
        t.add_as(2)
        model = PropagationModel(t)
        assert model.path(1, 2) is None

    def test_paths_are_valley_free(self, model):
        # Every returned path must be up*, peer?, down*.
        topology = model.topology
        for origin in topology.asns:
            for monitor in model.receivers(origin):
                path = model.path(origin, monitor)
                hops = list(path.asns())[::-1]  # origin -> monitor
                phase = "up"
                for a, b in zip(hops, hops[1:]):
                    if b in topology.providers_of(a):
                        assert phase == "up", f"valley in {hops}"
                    elif b in topology.peers_of(a):
                        assert phase == "up", f"second peering in {hops}"
                        phase = "peered"
                    else:
                        assert b in topology.customers_of(a)
                        phase = "down"

    def test_shortest_path_selected(self, model):
        # 31 -> 30 share provider 20: two hops via 20.
        path = model.path(31, 30)
        assert len(list(path.asns())) == 3

    def test_receivers_cached(self, model):
        first = model.receivers(30)
        assert model.receivers(30) is first  # cached object


class TestVisibilityFraction:
    def test_full_visibility(self, model):
        assert {10, 11, 21} <= model.receivers(30)

    def test_partial_visibility(self):
        t = ASTopology()
        for asn in (20, 21, 30, 31):
            t.add_as(asn)
        t.add_customer_provider(30, 20)
        t.add_customer_provider(31, 21)
        model = PropagationModel(t)
        assert model.receivers(30) & {20, 21} == {20}


class TestGeneratedTopology:
    def test_stub_routes_reach_nearly_all_monitors(self):
        topology = ASTopology.generate(
            TopologyConfig(tier1_count=4, mid_count=20, stub_count=80)
        )
        model = PropagationModel(topology)
        monitors = frozenset(topology.well_connected_asns(10, seed=3))
        stubs = topology.tier_members(3)[:20]
        for stub in stubs:
            # The hierarchy is connected: full monitor visibility.
            assert monitors <= model.receivers(stub)
