"""Tests for the world generator (small scenario)."""

import datetime

import pytest

from repro.registry.rir import RIR
from repro.registry.transfers import TransferType
from repro.simulation import World, paper_scenario, small_scenario
from repro.simulation.scenario import ScenarioConfig
from repro.whois.inetnum import InetnumStatus
from repro.errors import ScenarioError
from tests.simulation.world_digests import rpki_digest, whois_digest

D = datetime.date


@pytest.fixture(scope="module")
def world():
    return World(small_scenario())


class TestScenario:
    def test_presets_validate(self):
        small_scenario().validate()
        paper_scenario().validate()

    def test_validation_catches_bad_config(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig(lir_count=0).validate()
        with pytest.raises(ScenarioError):
            ScenarioConfig(onoff_fraction=2.0).validate()
        with pytest.raises(ScenarioError):
            ScenarioConfig(
                bgp_start=D(2020, 1, 1), bgp_end=D(2019, 1, 1)
            ).validate()


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = World(small_scenario(seed=7))
        b = World(small_scenario(seed=7))
        specs_a = [(str(s.prefix), s.delegatee_asn)
                   for s in a.delegation_plan().specs]
        specs_b = [(str(s.prefix), s.delegatee_asn)
                   for s in b.delegation_plan().specs]
        assert specs_a == specs_b
        assert len(a.transfer_ledger()) == len(b.transfer_ledger())

    def test_different_seed_different_world(self):
        a = World(small_scenario(seed=7))
        b = World(small_scenario(seed=8))
        specs_a = {str(s.prefix) for s in a.delegation_plan().specs}
        specs_b = {str(s.prefix) for s in b.delegation_plan().specs}
        assert specs_a != specs_b

    @pytest.mark.parametrize("scenario", [
        small_scenario(seed=42), paper_scenario(seed=3),
    ], ids=["small-42", "paper-3"])
    def test_whois_and_rpki_do_not_depend_on_build_order(self, scenario):
        # Both carve from the LIR pools the delegation plan left; each
        # must get its own copy, or the second one built gets what the
        # first one left.
        built = {}
        for order in (("whois",), ("rpki",), ("whois", "rpki"),
                      ("rpki", "whois")):
            world = World(scenario)
            for component in order:
                digest = (
                    whois_digest(world.whois()) if component == "whois"
                    else rpki_digest(world.rpki())
                )
                built.setdefault(component, set()).add(digest)
        assert len(built["whois"]) == 1
        assert len(built["rpki"]) == 1

    def test_announcements_deterministic_per_day(self, world):
        date = D(2020, 1, 15)
        source = world.announcement_source()
        first = [(str(a.prefix), a.origin_asn) for a in source(date)]
        second = [(str(a.prefix), a.origin_asn) for a in source(date)]
        assert first == second


class TestOrgs:
    def test_lir_holdings(self, world):
        lirs = world.lirs()
        assert len(lirs) == world.config.lir_count
        for org in lirs:
            assert org.holdings
            assert org.asns

    def test_delegated_prefixes_inside_holdings(self, world):
        for spec in world.delegation_plan().specs:
            assert spec.covering_prefix.covers(spec.prefix)
            assert spec.covering_prefix in spec.delegator.holdings

    def test_delegation_prefixes_disjoint(self, world):
        specs = world.delegation_plan().specs
        prefixes = sorted(s.prefix for s in specs)
        for left, right in zip(prefixes, prefixes[1:]):
            assert not left.overlaps(right)

    def test_intra_org_specs_use_second_as(self, world):
        for spec in world.delegation_plan().intra_org():
            assert spec.delegatee_asn in spec.delegator.asns
            assert spec.delegatee_asn != spec.delegator.primary_asn


class TestWhoisWorld:
    def test_small_fraction_matches_config(self, world):
        assigned = world.whois().by_status(InetnumStatus.ASSIGNED_PA)
        small = [obj for obj in assigned if obj.num_addresses < 256]
        fraction = len(small) / len(assigned)
        assert fraction == pytest.approx(
            world.config.assigned_small_fraction, abs=0.01
        )

    def test_registered_delegations_in_whois(self, world):
        db = world.whois()
        registered = [
            s for s in world.delegation_plan().cross_org()
            if s.rdap_registered
        ]
        assert registered
        for spec in registered:
            assert db.find_exact_prefix(spec.prefix) is not None

    def test_sub_allocated_count(self, world):
        from repro.whois.inetnum import InetnumStatus

        subs = world.whois().by_status(InetnumStatus.SUB_ALLOCATED_PA)
        assert len(subs) == world.config.sub_allocated_count


class TestRoutingWorld:
    def test_pairs_match_record_path(self, world):
        """The packed day table equals record-level aggregation."""
        from repro.bgp.rib import PairTable
        from repro.bgp.stream import prefix_origin_pairs

        date = D(2020, 1, 20)
        stream = world.stream()
        fast = stream.pair_table_on(date)
        slow = PairTable.from_pairs(
            prefix_origin_pairs(stream.records_on(date))
        )
        assert list(fast.rows()) == list(slow.rows())

    def test_monitor_count(self, world):
        expected = (
            len(world.config.collector_names)
            * world.config.monitors_per_collector
        )
        assert world.stream().monitor_count() == expected

    def test_holdings_announced_every_day(self, world):
        date = D(2020, 2, 1)
        pairs = {
            prefix: (origin, count)
            for prefix, origin, count in world.stream().pair_table_on(
                date
            ).rows()
        }
        for org in world.lirs():
            for holding in org.holdings:
                assert holding in pairs
                origin, count = pairs[holding]
                assert origin == org.primary_asn
                assert count == world.stream().monitor_count()

    def test_onoff_specs_toggle(self, world):
        plan = world.delegation_plan()
        flappy = [s for s in plan.specs if s.onoff is not None]
        assert flappy  # scenario guarantees some
        spec = flappy[0]
        window = [
            world.config.bgp_start + datetime.timedelta(days=i)
            for i in range(spec.onoff.period_days * 2)
        ]
        states = {spec.announced_on(d) for d in window}
        assert states == {True, False}


class TestMarketsWorld:
    def test_markets_start_at_last_slash8(self, world):
        from repro.registry.rir import profile_for

        ledger = world.transfer_ledger()
        for rir in (RIR.APNIC, RIR.ARIN, RIR.RIPE):
            transfers = ledger.intra_rir(rir)
            assert transfers
            first = min(t.date for t in transfers)
            assert first >= profile_for(rir).last_slash8_date

    def test_minor_regions_negligible(self, world):
        ledger = world.transfer_ledger()
        major = len(ledger.intra_rir(RIR.ARIN))
        minor = len(ledger.intra_rir(RIR.AFRINIC)) + len(
            ledger.intra_rir(RIR.LACNIC)
        )
        assert minor < major / 5

    def test_inter_rir_only_between_parties(self, world):
        for record in world.transfer_ledger().inter_rir():
            assert record.source_rir in (RIR.APNIC, RIR.ARIN, RIR.RIPE)
            assert record.recipient_rir in (RIR.APNIC, RIR.ARIN, RIR.RIPE)

    def test_mna_labels_only_where_published(self, world):
        ledger = world.transfer_ledger()
        for record in ledger.records():
            if record.true_type is TransferType.MERGER_ACQUISITION:
                published = record.published_type()
                if record.source_rir in (RIR.APNIC, RIR.LACNIC):
                    assert published is None
                else:
                    assert published is TransferType.MERGER_ACQUISITION

    def test_priced_dataset_window(self, world):
        priced = world.priced_transactions()
        assert len(priced) > 0
        for txn in priced:
            assert world.config.pricing_start <= txn.date
            assert txn.date < world.config.market_end
            assert 16 <= txn.block_length <= 24


class TestRpkiWorld:
    def test_snapshot_count(self, world):
        days = (world.config.bgp_end - world.config.bgp_start).days
        assert len(world.rpki()) == days

    def test_delegations_exist(self, world):
        first = world.rpki().dates()[0]
        delegations = world.rpki().delegations_on(first)
        assert delegations
