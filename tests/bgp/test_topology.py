"""Unit tests for :mod:`repro.bgp.topology`."""

import pytest

from repro.bgp.topology import ASRelationship, ASTopology, TopologyConfig
from repro.errors import BgpError


@pytest.fixture
def small():
    """A tiny hand-built topology.

    ::

        10 --- 11        (tier-1 peering)
        |       |
        20      21       (mid: customers of tier-1)
        |       |
        30      31       (stubs)
    """
    t = ASTopology()
    for asn, tier in [(10, 1), (11, 1), (20, 2), (21, 2), (30, 3), (31, 3)]:
        t.add_as(asn, tier=tier)
    t.add_peering(10, 11)
    t.add_customer_provider(20, 10)
    t.add_customer_provider(21, 11)
    t.add_customer_provider(30, 20)
    t.add_customer_provider(31, 21)
    return t


class TestConstruction:
    def test_relationships(self, small):
        assert small.providers_of(20) == {10}
        assert small.customers_of(10) == {20}
        assert small.peers_of(10) == {11}
        assert 30 in small.tier_members(3)

    def test_duplicate_as_rejected(self, small):
        with pytest.raises(BgpError):
            small.add_as(10)

    def test_self_relationships_rejected(self, small):
        with pytest.raises(BgpError):
            small.add_customer_provider(10, 10)
        with pytest.raises(BgpError):
            small.add_peering(10, 10)

    def test_conflicting_relationships_rejected(self, small):
        with pytest.raises(BgpError):
            small.add_peering(20, 10)  # already transit
        with pytest.raises(BgpError):
            small.add_customer_provider(10, 11)  # already peering

    def test_unknown_as(self, small):
        with pytest.raises(BgpError):
            small.providers_of(999)
        with pytest.raises(BgpError):
            small.add_customer_provider(999, 10)

    def test_edge_count(self, small):
        assert small.edge_count() == 5  # 4 transit + 1 peering
        assert len(small) == 6
        assert 10 in small and 999 not in small


class TestGenerate:
    def test_deterministic(self):
        config = TopologyConfig(tier1_count=3, mid_count=10, stub_count=30)
        a = ASTopology.generate(config)
        b = ASTopology.generate(config)
        assert a.asns == b.asns
        for asn in a.asns:
            assert a.providers_of(asn) == b.providers_of(asn)
            assert a.peers_of(asn) == b.peers_of(asn)

    def test_sizes(self):
        config = TopologyConfig(tier1_count=3, mid_count=10, stub_count=30)
        t = ASTopology.generate(config)
        assert len(t) == 43
        assert len(t.tier_members(1)) == 3
        assert len(t.tier_members(2)) == 10
        assert len(t.tier_members(3)) == 30

    def test_tier1_clique(self):
        t = ASTopology.generate(
            TopologyConfig(tier1_count=4, mid_count=5, stub_count=5)
        )
        tier1 = t.tier_members(1)
        for asn in tier1:
            assert t.peers_of(asn) >= set(tier1) - {asn}
            assert not t.providers_of(asn)  # tier-1s buy from nobody

    def test_everyone_has_a_provider_except_tier1(self):
        t = ASTopology.generate(
            TopologyConfig(tier1_count=3, mid_count=10, stub_count=30)
        )
        for asn in t.asns - set(t.tier_members(1)):
            assert t.providers_of(asn)

    def test_validation(self):
        with pytest.raises(BgpError):
            ASTopology.generate(TopologyConfig(tier1_count=1))
        with pytest.raises(BgpError):
            ASTopology.generate(
                TopologyConfig(mid_peering_probability=2.0)
            )

    def test_well_connected_monitors(self):
        t = ASTopology.generate(
            TopologyConfig(tier1_count=3, mid_count=10, stub_count=30)
        )
        monitors = t.well_connected_asns(6, seed=1)
        assert len(monitors) == 6
        assert set(monitors) <= set(t.tier_members(1) + t.tier_members(2))
        assert monitors == t.well_connected_asns(6, seed=1)

    def test_too_many_monitors(self, small):
        with pytest.raises(BgpError):
            small.well_connected_asns(100)

    def test_relationship_enum(self):
        assert ASRelationship.CUSTOMER_OF.value == "customer-of"
