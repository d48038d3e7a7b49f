"""Integration-style tests for :mod:`repro.registry.registry`."""

import datetime

import pytest

from repro.errors import MembershipError, PolicyError, TransferError
from repro.netbase.prefix import IPv4Prefix
from repro.registry.registry import RegistrySystem, RIRRegistry
from repro.registry.rir import RIR
from repro.registry.transfers import TransferType


def d(text):
    return datetime.date.fromisoformat(text)


def p(text):
    return IPv4Prefix.parse(text)


@pytest.fixture
def ripe():
    return RIRRegistry(RIR.RIPE, [p("185.0.0.0/16")])


class TestAllocationLifecycle:
    def test_member_gets_block(self, ripe):
        ripe.open_membership("org-1", d("2020-01-01"))
        decision, block = ripe.request_allocation("org-1", d("2020-01-02"))
        assert decision.approved and block is not None
        assert block.length == 24  # RIPE's 2020 cap
        assert ripe.holder_of(block) == "org-1"

    def test_non_member_rejected(self, ripe):
        with pytest.raises(MembershipError):
            ripe.request_allocation("org-x", d("2020-01-02"))

    def test_second_request_denied_after_last_slash8(self, ripe):
        ripe.open_membership("org-1", d("2020-01-01"))
        ripe.request_allocation("org-1", d("2020-01-02"))
        decision, block = ripe.request_allocation("org-1", d("2020-02-02"))
        assert not decision.approved and block is None

    def test_empty_pool_waitlists(self):
        registry = RIRRegistry(RIR.RIPE, [])
        registry.open_membership("org-1", d("2020-01-01"))
        decision, block = registry.request_allocation("org-1", d("2020-01-02"))
        assert decision.approved and decision.waitlisted and block is None
        assert len(registry.waiting_list) == 1

    def test_waitlist_fulfilled_after_recovery(self):
        registry = RIRRegistry(RIR.RIPE, [])
        registry.open_membership("org-old", d("2019-01-01"))
        registry.open_membership("org-new", d("2020-01-01"))
        # org-old holds legacy-ish space registered externally.
        registry.register_external_block("org-old", p("185.0.0.0/24"))
        # New member queues.
        registry.request_allocation("org-new", d("2020-01-02"))
        # Old member closes; space recovered into quarantine.
        registry.close_membership("org-old", d("2020-01-03"))
        # Before quarantine matures nothing happens.
        assert registry.tick(d("2020-02-01")) == []
        # After ~6 months the block is released and the request served.
        fulfilled = registry.tick(d("2020-07-10"))
        assert len(fulfilled) == 1
        org, block = fulfilled[0]
        assert org == "org-new"
        assert block == p("185.0.0.0/24")
        assert registry.holder_of(block) == "org-new"

    def test_waitlist_skips_departed_member(self):
        registry = RIRRegistry(RIR.RIPE, [])
        registry.open_membership("org-a", d("2020-01-01"))
        registry.open_membership("org-b", d("2020-01-01"))
        registry.request_allocation("org-a", d("2020-01-02"))
        registry.request_allocation("org-b", d("2020-01-03"))
        registry.close_membership("org-a", d("2020-01-04"))
        registry.pool.add(p("185.0.0.0/24"))
        fulfilled = registry.tick(d("2020-01-05"))
        assert [org for org, _ in fulfilled] == ["org-b"]


class TestRecovery:
    def test_recover_requires_holder(self, ripe):
        ripe.open_membership("org-1", d("2020-01-01"))
        _, block = ripe.request_allocation("org-1", d("2020-01-02"))
        ripe.recover("org-1", block, d("2020-02-01"))
        assert ripe.holder_of(block) is None
        assert [e.block for e in ripe.quarantine.pending()] == [block]

    def test_recover_wrong_org(self, ripe):
        ripe.open_membership("org-1", d("2020-01-01"))
        ripe.open_membership("org-2", d("2020-01-01"))
        _, block = ripe.request_allocation("org-1", d("2020-01-02"))
        with pytest.raises(MembershipError):
            ripe.recover("org-2", block, d("2020-02-01"))


class TestIntraRIRTransfer:
    def test_transfer_moves_registration(self, ripe):
        ripe.open_membership("seller", d("2020-01-01"))
        ripe.open_membership("buyer", d("2020-01-01"))
        _, block = ripe.request_allocation("seller", d("2020-01-02"))
        record = ripe.transfer(
            d("2020-03-01"), [block], "seller", "buyer",
            price_per_address=22.5,
        )
        assert ripe.holder_of(block) == "buyer"
        assert record.price_per_address == 22.5
        assert not record.is_inter_rir
        assert len(ripe.ledger) == 1

    def test_transfer_requires_holding(self, ripe):
        ripe.open_membership("seller", d("2020-01-01"))
        ripe.open_membership("buyer", d("2020-01-01"))
        with pytest.raises(TransferError):
            ripe.transfer(
                d("2020-03-01"), [p("185.0.0.0/24")], "seller", "buyer"
            )

    def test_transfer_rejects_tiny_blocks(self, ripe):
        ripe.open_membership("seller", d("2020-01-01"))
        ripe.open_membership("buyer", d("2020-01-01"))
        ripe.register_external_block("seller", p("185.0.0.0/25"))
        with pytest.raises(PolicyError):
            ripe.transfer(
                d("2020-03-01"), [p("185.0.0.0/25")], "seller", "buyer"
            )


class TestRegistrySystem:
    @pytest.fixture
    def system(self):
        system = RegistrySystem({
            RIR.ARIN: [p("8.0.0.0/16")],
            RIR.RIPE: [p("185.0.0.0/16")],
        })
        system[RIR.ARIN].open_membership("us-org", d("2014-01-01"))
        system[RIR.RIPE].open_membership("eu-org", d("2014-01-01"))
        return system

    def test_inter_rir_transfer(self, system):
        system[RIR.ARIN].register_external_block("us-org", p("8.0.1.0/24"))
        record = system.inter_rir_transfer(
            d("2020-01-01"), [p("8.0.1.0/24")],
            "us-org", RIR.ARIN, "eu-org", RIR.RIPE,
        )
        assert record.is_inter_rir
        assert system[RIR.ARIN].holder_of(p("8.0.1.0/24")) is None
        assert system[RIR.RIPE].holder_of(p("8.0.1.0/24")) == "eu-org"
        # Region moves with the block.
        assert system.maintaining_rir(p("8.0.1.0/24")) is RIR.RIPE

    def test_inter_rir_restricted_parties(self, system):
        system[RIR.LACNIC].open_membership("latam-org", d("2014-01-01"))
        system[RIR.LACNIC].register_external_block(
            "latam-org", p("200.0.0.0/24")
        )
        with pytest.raises(PolicyError):
            system.inter_rir_transfer(
                d("2020-01-01"), [p("200.0.0.0/24")],
                "latam-org", RIR.LACNIC, "eu-org", RIR.RIPE,
            )

    def test_intra_via_system_rejected(self, system):
        with pytest.raises(TransferError):
            system.inter_rir_transfer(
                d("2020-01-01"), [p("8.0.1.0/24")],
                "us-org", RIR.ARIN, "us-org", RIR.ARIN,
            )

    def test_shared_ledger_sees_both_feeds(self, system):
        system[RIR.ARIN].register_external_block("us-org", p("8.0.1.0/24"))
        system.inter_rir_transfer(
            d("2020-01-01"), [p("8.0.1.0/24")],
            "us-org", RIR.ARIN, "eu-org", RIR.RIPE,
        )
        assert len(system.ledger.feed_for(RIR.ARIN)["transfers"]) == 1
        assert len(system.ledger.feed_for(RIR.RIPE)["transfers"]) == 1

    def test_tick_all(self, system):
        results = system.tick(d("2020-01-01"))
        assert set(results) == set(RIR)
