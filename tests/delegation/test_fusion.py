"""Tests for multi-source delegation fusion."""

import pytest

from repro.delegation.fusion import (
    FusedDelegation,
    Source,
    fuse_delegations,
)
from repro.delegation.model import BgpDelegation, RdapDelegation
from repro.netbase.prefix import IPv4Prefix
from repro.rpki.database import RpkiDelegation


def p(text):
    return IPv4Prefix.parse(text)


def bgp(prefix, cover="193.0.0.0/16"):
    return BgpDelegation(
        prefix=p(prefix),
        delegator_asn=100,
        delegatee_asn=200,
        covering_prefix=p(cover),
    )


def rpki(prefix):
    return RpkiDelegation(prefix=p(prefix), delegator_asn=100,
                          delegatee_asn=200)


def rdap(prefix_text):
    prefix = p(prefix_text)
    return RdapDelegation(
        child_first=prefix.network,
        child_last=prefix.broadcast,
        child_handle=str(prefix),
        parent_handle="parent",
        status="ASSIGNED PA",
    )


class TestFusion:
    def test_three_way_corroboration(self):
        report = fuse_delegations(
            [bgp("193.0.4.0/24")],
            [rpki("193.0.4.0/24")],
            [rdap("193.0.4.0/24")],
        )
        assert len(report.fused) == 1
        fused = report.fused[0]
        assert fused.corroboration == 3
        assert fused.sources == {Source.BGP, Source.RPKI, Source.RDAP}

    def test_disjoint_sources(self):
        report = fuse_delegations(
            [bgp("193.0.4.0/24")],
            [],
            [rdap("193.0.64.0/20")],
        )
        assert len(report.fused) == 2
        by_prefix = {f.prefix: f for f in report.fused}
        assert by_prefix[p("193.0.4.0/24")].routed_but_unregistered
        assert by_prefix[p("193.0.64.0/20")].registered_but_unrouted

    def test_overlap_credits_both_granularities(self):
        """A /24 routed inside a registered /20 is one agreement."""
        report = fuse_delegations(
            [bgp("193.0.64.0/24")],
            [],
            [rdap("193.0.64.0/20")],
        )
        by_prefix = {f.prefix: f for f in report.fused}
        assert by_prefix[p("193.0.64.0/24")].sources == {
            Source.BGP, Source.RDAP
        }
        assert by_prefix[p("193.0.64.0/20")].sources == {
            Source.BGP, Source.RDAP
        }

    def test_combined_addresses_no_double_count(self):
        report = fuse_delegations(
            [bgp("193.0.64.0/24")],
            [rpki("193.0.64.0/24")],
            [rdap("193.0.64.0/20")],
        )
        assert report.combined_addresses == 4096  # the /20 covers all

    def test_addresses_by_source(self):
        report = fuse_delegations(
            [bgp("193.0.4.0/24")],
            [],
            [rdap("193.0.64.0/20")],
        )
        assert report.addresses_by_source[Source.BGP] == 256
        assert report.addresses_by_source[Source.RDAP] == 4096
        assert report.addresses_by_source[Source.RPKI] == 0

    def test_count_by_corroboration(self):
        report = fuse_delegations(
            [bgp("193.0.4.0/24")],
            [rpki("193.0.4.0/24")],
            [rdap("193.0.64.0/20")],
        )
        counts = report.count_by_corroboration()
        assert counts[2] == 1  # the BGP+RPKI prefix
        assert counts[1] == 1  # the RDAP-only lease

    def test_summary_lines(self):
        report = fuse_delegations(
            [bgp("193.0.4.0/24")], [], [rdap("193.0.64.0/20")]
        )
        lines = report.summary_lines()
        assert any("combined market size" in line for line in lines)
        assert any("BGP" in line for line in lines)

    def test_empty_everything(self):
        report = fuse_delegations([], [], [])
        assert report.fused == ()
        assert report.combined_addresses == 0


class TestWorldFusion:
    def test_fusion_on_small_world(self):
        """End to end: all three pipelines fused."""
        import datetime

        from repro.delegation import (
            DelegationInference,
            InferenceConfig,
            extract_rdap_delegations,
        )
        from repro.simulation import World, small_scenario

        world = World(small_scenario())
        date = world.config.bgp_end - datetime.timedelta(days=1)
        inference = DelegationInference(
            InferenceConfig.extended(), world.as2org()
        )
        stream = world.stream()
        bgp_found = inference.infer_day_from_table(
            stream.pair_table_on(date), stream.monitor_count(), date
        )
        rpki_found = world.rpki().delegations_on(world.rpki().dates()[-1])
        client = world.rdap_client()
        rdap_found = extract_rdap_delegations(
            world.whois().inetnums(), client
        )
        report = fuse_delegations(bgp_found, rpki_found, rdap_found)
        assert len(report.fused) > len(bgp_found)
        # The combined view exceeds any single source.
        for source_addresses in report.addresses_by_source.values():
            assert report.combined_addresses >= source_addresses
        # Corroborated delegations exist (registered BGP delegations).
        assert any(f.corroboration >= 2 for f in report.fused)
