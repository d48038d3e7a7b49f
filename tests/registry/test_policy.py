"""Unit tests for :mod:`repro.registry.policy` and the RIR profiles."""

import datetime

import pytest

from repro.errors import PolicyError
from repro.registry.policy import (
    APNIC_WAITLIST_ABOLISHED,
    NORMAL_PHASE_MAX_LENGTH,
    AllocationPolicy,
    PolicyPhase,
)
from repro.registry.rir import (
    INTER_RIR_PARTIES,
    RIR,
    profile_for,
)


def d(text):
    return datetime.date.fromisoformat(text)


class TestProfiles:
    def test_table1_dates(self):
        last_slash8 = {r: profile_for(r).last_slash8_date for r in RIR}
        assert last_slash8[RIR.APNIC] == d("2011-04-15")
        assert last_slash8[RIR.RIPE] == d("2012-09-14")
        assert last_slash8[RIR.ARIN] == d("2014-04-23")
        assert last_slash8[RIR.LACNIC] == d("2017-02-15")
        assert last_slash8[RIR.AFRINIC] == d("2017-03-31")

    def test_depletion_dates(self):
        depletion = {r: profile_for(r).depletion_date for r in RIR}
        assert depletion[RIR.ARIN] == d("2015-09-24")
        assert depletion[RIR.RIPE] == d("2019-11-25")
        assert depletion[RIR.LACNIC] == d("2020-08-19")
        assert depletion[RIR.APNIC] is None
        assert depletion[RIR.AFRINIC] is None

    def test_max_allocation_lengths(self):
        assert profile_for(RIR.AFRINIC).max_allocation_length == 22
        assert profile_for(RIR.ARIN).max_allocation_length == 22
        assert profile_for(RIR.LACNIC).max_allocation_length == 22
        assert profile_for(RIR.APNIC).max_allocation_length == 23
        assert profile_for(RIR.RIPE).max_allocation_length == 24

    def test_mna_labelling(self):
        labelled = {r for r in RIR if profile_for(r).labels_mna_transfers}
        assert labelled == {RIR.AFRINIC, RIR.ARIN, RIR.RIPE}

    def test_inter_rir_parties(self):
        assert INTER_RIR_PARTIES == {RIR.APNIC, RIR.ARIN, RIR.RIPE}


class TestPhases:
    def test_ripe_phases(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        assert policy.phase_on(d("2010-01-01")) is PolicyPhase.NORMAL
        assert policy.phase_on(d("2012-09-14")) is PolicyPhase.SOFT_LANDING
        assert policy.phase_on(d("2019-11-24")) is PolicyPhase.SOFT_LANDING
        assert policy.phase_on(d("2019-11-25")) is PolicyPhase.EXHAUSTED
        assert policy.phase_on(d("2020-06-01")) is PolicyPhase.EXHAUSTED

    def test_apnic_never_exhausted_in_window(self):
        policy = AllocationPolicy(profile_for(RIR.APNIC))
        assert policy.phase_on(d("2020-06-01")) is PolicyPhase.SOFT_LANDING

    def test_max_allocation_by_phase(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        assert (
            policy.max_allocation_length(d("2010-01-01"))
            == NORMAL_PHASE_MAX_LENGTH
        )
        assert policy.max_allocation_length(d("2020-01-01")) == 24


class TestWaitingListActivation:
    def test_apnic_abolition(self):
        policy = AllocationPolicy(profile_for(RIR.APNIC))
        before = APNIC_WAITLIST_ABOLISHED - datetime.timedelta(days=1)
        assert policy.waiting_list_active(before)
        assert not policy.waiting_list_active(APNIC_WAITLIST_ABOLISHED)

    def test_other_rirs_keep_lists(self):
        for rir in (RIR.ARIN, RIR.LACNIC, RIR.RIPE):
            policy = AllocationPolicy(profile_for(rir))
            assert policy.waiting_list_active(d("2020-06-01"))

    def test_no_list_during_normal_phase(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        assert not policy.waiting_list_active(d("2010-01-01"))


class TestDecisions:
    def test_normal_phase_grants_requested(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        decision = policy.evaluate_request(d("2010-01-01"), 16)
        assert decision.approved and not decision.waitlisted
        assert decision.granted_length == 16

    def test_soft_landing_caps_size(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        decision = policy.evaluate_request(d("2015-01-01"), 16)
        assert decision.approved and not decision.waitlisted
        assert decision.granted_length == 24  # capped at RIPE's /24

    def test_one_block_per_member_after_last_slash8(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        decision = policy.evaluate_request(
            d("2015-01-01"), 24, existing_allocations=1
        )
        assert not decision.approved

    def test_exhausted_goes_to_waitlist(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        decision = policy.evaluate_request(
            d("2020-01-01"), 24, pool_can_satisfy=False
        )
        assert decision.approved and decision.waitlisted

    def test_soft_landing_empty_pool_waitlists(self):
        policy = AllocationPolicy(profile_for(RIR.ARIN))
        decision = policy.evaluate_request(
            d("2015-01-01"), 22, pool_can_satisfy=False
        )
        assert decision.approved and decision.waitlisted

    def test_apnic_after_abolition_denies(self):
        policy = AllocationPolicy(profile_for(RIR.APNIC))
        decision = policy.evaluate_request(
            d("2020-01-01"), 23, pool_can_satisfy=False
        )
        assert not decision.approved and not decision.waitlisted

    def test_invalid_length(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        with pytest.raises(PolicyError):
            policy.evaluate_request(d("2020-01-01"), 33)

    def test_transfer_block_minimum(self):
        policy = AllocationPolicy(profile_for(RIR.RIPE))
        policy.validate_transfer_block(d("2020-01-01"), 24)
        with pytest.raises(PolicyError):
            policy.validate_transfer_block(d("2020-01-01"), 25)
