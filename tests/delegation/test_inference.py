"""Tests for the BGP delegation-inference pipeline."""

import datetime

import pytest

from repro.asorg.as2org import As2OrgDataset, As2OrgSnapshot, Organization
from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import Announcement
from repro.bgp.propagation import PropagationModel
from repro.bgp.rib import PairTable
from repro.bgp.stream import RouteStream, prefix_origin_pairs
from repro.bgp.topology import ASTopology
from repro.delegation.consistency import ConsistencyRule
from repro.delegation.inference import (
    DelegationInference,
    InferenceConfig,
    InferenceResult,
)
from repro.delegation.model import DailyDelegations
from repro.errors import ReproError
from repro.netbase.prefix import IPv4Prefix

D = datetime.date


def p(text):
    return IPv4Prefix.parse(text)


@pytest.fixture
def topology():
    t = ASTopology()
    for asn, tier in [(10, 1), (11, 1), (20, 2), (21, 2),
                      (30, 3), (31, 3), (32, 3)]:
        t.add_as(asn, tier=tier)
    t.add_peering(10, 11)
    t.add_customer_provider(20, 10)
    t.add_customer_provider(21, 11)
    t.add_customer_provider(30, 20)
    t.add_customer_provider(31, 21)
    t.add_customer_provider(32, 21)
    return t


@pytest.fixture
def system(topology):
    return CollectorSystem(
        [Collector("rrc00", [10, 20]), Collector("route-views2", [11, 21])],
        PropagationModel(topology),
    )


@pytest.fixture
def as2org():
    dataset = As2OrgDataset()
    snapshot = As2OrgSnapshot(D(2020, 1, 1))
    snapshot.add_organization(Organization("ORG-A", "Alpha"))
    snapshot.add_organization(Organization("ORG-B", "Beta"))
    for asn in (30,):
        snapshot.assign(asn, "ORG-A")
    for asn in (31, 32):
        snapshot.assign(asn, "ORG-B")
    dataset.add_snapshot(snapshot)
    return dataset


def day_table(system, announcements, date=D(2020, 1, 1)):
    """The day's records, aggregated into the kernel's input."""
    records = system.records_for_day(announcements, date)
    return PairTable.from_pairs(prefix_origin_pairs(records))


def run_day(system, announcements, config, as2org=None, date=D(2020, 1, 1)):
    inference = DelegationInference(config, as2org)
    return inference.infer_day_from_table(
        day_table(system, announcements, date), 4, date
    )


class TestBaseAlgorithm:
    def test_infers_simple_delegation(self, system):
        announcements = [
            Announcement(p("101.0.0.0/16"), 30),    # S owns P
            Announcement(p("101.0.4.0/24"), 31),    # T announces P'
        ]
        found = run_day(system, announcements, InferenceConfig.baseline())
        assert len(found) == 1
        delegation = found[0]
        assert delegation.prefix == p("101.0.4.0/24")
        assert delegation.delegator_asn == 30
        assert delegation.delegatee_asn == 31
        assert delegation.covering_prefix == p("101.0.0.0/16")

    def test_same_origin_not_a_delegation(self, system):
        announcements = [
            Announcement(p("101.0.0.0/16"), 30),
            Announcement(p("101.0.4.0/24"), 30),   # own more-specific
        ]
        assert run_day(system, announcements, InferenceConfig.baseline()) == []

    def test_no_cover_no_delegation(self, system):
        announcements = [Announcement(p("101.0.4.0/24"), 31)]
        assert run_day(system, announcements, InferenceConfig.baseline()) == []

    def test_most_specific_cover_is_delegator(self, system):
        announcements = [
            Announcement(p("101.0.0.0/8"), 30),
            Announcement(p("101.0.0.0/16"), 31),
            Announcement(p("101.0.4.0/24"), 32),
        ]
        found = run_day(system, announcements, InferenceConfig.baseline())
        pairs = {(d.prefix, d.delegator_asn, d.delegatee_asn) for d in found}
        assert (p("101.0.4.0/24"), 31, 32) in pairs   # from the /16
        assert (p("101.0.0.0/16"), 30, 31) in pairs   # /16 from the /8
        assert (p("101.0.4.0/24"), 30, 32) not in pairs

    def test_visibility_filter_drops_local_routes(self, system):
        # The more-specific only reaches monitor 10 (a local hijack).
        announcements = [
            Announcement(p("101.0.0.0/16"), 30),
            Announcement(
                p("101.0.4.0/24"), 31,
                restricted_to_monitors=frozenset({10}),
            ),
        ]
        result = InferenceResult(
            daily=DailyDelegations(), config=InferenceConfig.baseline()
        )
        inference = DelegationInference(InferenceConfig.baseline())
        found = inference.infer_day_from_table(
            day_table(system, announcements), 4, D(2020, 1, 1), result
        )
        assert found == []
        assert result.pairs_dropped_visibility == 1

    def test_threshold_zero_keeps_local_routes(self, system):
        announcements = [
            Announcement(p("101.0.0.0/16"), 30),
            Announcement(
                p("101.0.4.0/24"), 31,
                restricted_to_monitors=frozenset({10}),
            ),
        ]
        config = InferenceConfig(
            visibility_threshold=0.0,
            same_org_filter=False,
            consistency_rule=None,
        )
        assert len(run_day(system, announcements, config)) == 1

    def test_as_set_origin_dropped(self, system):
        announcements = [
            Announcement(p("101.0.0.0/16"), 30),
            Announcement(p("101.0.4.0/24"), 31, as_set_origin=True),
        ]
        assert run_day(system, announcements, InferenceConfig.baseline()) == []

    def test_moas_dropped(self, system):
        announcements = [
            Announcement(p("101.0.0.0/16"), 30),
            Announcement(p("101.0.4.0/24"), 31),
            Announcement(p("101.0.4.0/24"), 32),   # MOAS on P'
        ]
        assert run_day(system, announcements, InferenceConfig.baseline()) == []

    def test_bogus_prefixes_sanitized(self, system):
        announcements = [
            Announcement(p("10.0.0.0/16"), 30),    # RFC 1918
            Announcement(p("10.0.4.0/24"), 31),
        ]
        assert run_day(system, announcements, InferenceConfig.baseline()) == []


class TestVisibilityBoundary:
    """The threshold comparison is inclusive: exactly the threshold
    fraction of monitors keeps a pair (`>=`, never strict `>`)."""

    def test_required_monitors_is_exact_at_representable_products(self):
        # 0.1 * 30 is 3.0000000000000004 in floats; a naive
        # ``count < threshold * total`` comparison would demand 4
        # monitors.  required_monitors() must say 3.
        assert InferenceConfig(
            visibility_threshold=0.1).required_monitors(30) == 3
        assert InferenceConfig(
            visibility_threshold=0.5).required_monitors(4) == 2
        assert InferenceConfig(
            visibility_threshold=0.0).required_monitors(7) == 0
        assert InferenceConfig(
            visibility_threshold=1.0).required_monitors(7) == 7
        # Non-representable products round *up*: 1.4 monitors means a
        # pair needs 2 to reach 10 % of 14.
        assert InferenceConfig(
            visibility_threshold=0.1).required_monitors(14) == 2

    def _run_pair(self, monitor_count, total_monitors, threshold):
        from repro.netbase.asnum import OriginSet

        config = InferenceConfig(
            visibility_threshold=threshold,
            same_org_filter=False,
            consistency_rule=None,
        )
        result = InferenceResult(daily=DailyDelegations(), config=config)
        pairs = {
            p("101.0.0.0/16"): (OriginSet.single(30), total_monitors),
            p("101.0.4.0/24"): (OriginSet.single(31), monitor_count),
        }
        DelegationInference(config).infer_day_from_table(
            PairTable.from_pairs(pairs), total_monitors, D(2020, 1, 1),
            result,
        )
        return result

    def test_pair_at_exactly_threshold_survives(self):
        # 3 of 30 monitors at threshold 0.1: exactly half-open boundary.
        result = self._run_pair(3, 30, 0.1)
        assert result.pairs_dropped_visibility == 0

    def test_pair_below_threshold_dropped(self):
        result = self._run_pair(2, 30, 0.1)
        assert result.pairs_dropped_visibility == 1

    def test_exactly_half_the_monitors_survives(self):
        # The paper's threshold: seen by half the monitors.  Exactly
        # half must survive (>=), one fewer must not.
        assert self._run_pair(2, 4, 0.5).pairs_dropped_visibility == 0
        assert self._run_pair(1, 4, 0.5).pairs_dropped_visibility == 1


class TestExtensions:
    def test_same_org_filter(self, system, as2org):
        announcements = [
            Announcement(p("101.0.0.0/16"), 31),
            Announcement(p("101.0.4.0/24"), 32),   # 31/32 share ORG-B
        ]
        config = InferenceConfig(consistency_rule=None)
        found = run_day(system, announcements, config, as2org)
        assert found == []
        # Baseline keeps it.
        base = run_day(system, announcements, InferenceConfig.baseline())
        assert len(base) == 1

    def test_same_org_filter_requires_dataset(self):
        with pytest.raises(ReproError):
            DelegationInference(InferenceConfig(consistency_rule=None))

    def test_cross_org_kept(self, system, as2org):
        announcements = [
            Announcement(p("101.0.0.0/16"), 30),   # ORG-A
            Announcement(p("101.0.4.0/24"), 31),   # ORG-B
        ]
        config = InferenceConfig(consistency_rule=None)
        assert len(run_day(system, announcements, config, as2org)) == 1

    def test_consistency_fill_over_range(self, system, as2org):
        """On-off announcement of P' is smoothed by extension (v)."""
        on_days = {D(2020, 1, 1), D(2020, 1, 6)}

        def source(date):
            announcements = [Announcement(p("101.0.0.0/16"), 30)]
            if date in on_days:
                announcements.append(Announcement(p("101.0.4.0/24"), 31))
            return announcements

        stream = RouteStream(system, source=source)
        extended = DelegationInference(
            InferenceConfig(consistency_rule=ConsistencyRule(10, 0)),
            as2org,
        )
        result = extended.infer_range(stream, D(2020, 1, 1), D(2020, 1, 7))
        counts = [count for _date, count in result.counts_series()]
        assert counts == [1] * 6  # gap filled

        baseline = DelegationInference(InferenceConfig.baseline())
        base_result = baseline.infer_range(
            stream, D(2020, 1, 1), D(2020, 1, 7)
        )
        base_counts = [c for _d, c in base_result.counts_series()]
        assert base_counts == [1, 0, 0, 0, 0, 1]  # on-off visible

    def test_conflicting_delegation_blocks_fill(self, system, as2org):
        def source(date):
            announcements = [Announcement(p("101.0.0.0/16"), 30)]
            if date in (D(2020, 1, 1), D(2020, 1, 6)):
                announcements.append(Announcement(p("101.0.4.0/24"), 31))
            elif date == D(2020, 1, 3):
                announcements.append(Announcement(p("101.0.4.0/24"), 32))
            return announcements

        stream = RouteStream(system, source=source)
        inference = DelegationInference(InferenceConfig(), as2org)
        result = inference.infer_range(stream, D(2020, 1, 1), D(2020, 1, 7))
        key_31 = (p("101.0.4.0/24"), 30, 31)
        assert key_31 not in result.daily.on(D(2020, 1, 2))
        assert key_31 in result.daily.on(D(2020, 1, 1))

    def test_addresses_series(self, system, as2org):
        def source(date):
            return [
                Announcement(p("101.0.0.0/16"), 30),
                Announcement(p("101.0.4.0/24"), 31),
                Announcement(p("101.0.6.0/23"), 31),
            ]

        stream = RouteStream(system, source=source)
        inference = DelegationInference(InferenceConfig(), as2org)
        result = inference.infer_range(stream, D(2020, 1, 1), D(2020, 1, 2))
        assert result.addresses_series() == [(D(2020, 1, 1), 256 + 512)]

    def test_invalid_threshold(self):
        with pytest.raises(ReproError):
            InferenceConfig(visibility_threshold=1.5)

    def test_invalid_monitor_count(self, system, as2org):
        inference = DelegationInference(InferenceConfig(), as2org)
        with pytest.raises(ReproError):
            inference.infer_day_from_table(
                PairTable.from_pairs({}), 0, D(2020, 1, 1)
            )
