"""End-to-end integration: the whole paper on the small world.

One world, every pipeline, cross-checked against the world's ground
truth — the strongest guarantee that the subsystems compose.
"""

import datetime

import pytest

from repro.analysis.market_size import estimate_market_size
from repro.analysis.prices import regional_price_difference
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    RdapExtractionStats,
    compare_delegations,
    evaluate_rules_on_rpki,
    extract_rdap_delegations,
)
from repro.simulation import World, small_scenario

D = datetime.date


@pytest.fixture(scope="module")
def world():
    return World(small_scenario())


@pytest.fixture(scope="module")
def inference_result(world):
    inference = DelegationInference(
        InferenceConfig.extended(), world.as2org()
    )
    return inference.infer_range(
        world.stream(), world.config.bgp_start, world.config.bgp_end
    )


class TestInferenceVsGroundTruth:
    def test_recall_against_planted_delegations(self, world, inference_result):
        """Most planted, always-on cross-org delegations are found."""
        date = world.config.bgp_start + datetime.timedelta(days=10)
        truth = {
            spec.prefix
            for spec in world.delegation_plan().cross_org()
            if spec.active_on(date) and spec.onoff is None
        }
        inferred = inference_result.daily.prefixes_on(date)
        recall = len(truth & inferred) / len(truth)
        assert recall > 0.95

    def test_no_intra_org_delegations_survive(self, world, inference_result):
        """Extension (iv) removes every planted intra-org delegation."""
        date = world.config.bgp_start + datetime.timedelta(days=10)
        intra = {spec.prefix for spec in world.delegation_plan().intra_org()}
        inferred = inference_result.daily.prefixes_on(date)
        assert not intra & inferred

    def test_baseline_keeps_intra_org(self, world):
        date = world.config.bgp_start + datetime.timedelta(days=10)
        baseline = DelegationInference(InferenceConfig.baseline())
        stream = world.stream()
        found = baseline.infer_day_from_table(
            stream.pair_table_on(date), stream.monitor_count(), date
        )
        intra = {spec.prefix for spec in world.delegation_plan().intra_org()}
        assert intra & {d.prefix for d in found}

    def test_precision_no_phantom_delegations(self, world, inference_result):
        """Everything inferred corresponds to a planted delegation."""
        date = world.config.bgp_start + datetime.timedelta(days=10)
        truth = {
            spec.prefix
            for spec in world.delegation_plan().cross_org()
            if spec.active_on(date)
        }
        inferred = inference_result.daily.prefixes_on(date)
        phantoms = inferred - truth
        assert len(phantoms) <= max(1, len(inferred) // 20)

    def test_delegators_and_delegatees_correct(self, world):
        date = world.config.bgp_start + datetime.timedelta(days=10)
        inference = DelegationInference(
            InferenceConfig.extended(), world.as2org()
        )
        stream = world.stream()
        found = inference.infer_day_from_table(
            stream.pair_table_on(date), stream.monitor_count(), date
        )
        by_prefix = {
            spec.prefix: spec for spec in world.delegation_plan().cross_org()
        }
        for delegation in found:
            spec = by_prefix.get(delegation.prefix)
            if spec is None:
                continue
            assert delegation.delegatee_asn == spec.delegatee_asn
            assert delegation.delegator_asn == spec.delegator.primary_asn


class TestCrossSourceConsistency:
    def test_rdap_and_bgp_views_compose(self, world, inference_result):
        server = world.rdap_server()
        client = world.rdap_client(server)
        stats = RdapExtractionStats()
        rdap = extract_rdap_delegations(
            world.whois().inetnums(), client, stats=stats
        )
        date = world.config.bgp_end - datetime.timedelta(days=1)
        bgp = inference_result.daily.prefixes_on(date)
        report = compare_delegations(bgp, rdap)
        # The registered share of BGP delegations approximates the
        # scenario's overlap target (registration is by address).
        assert report.rdap_over_bgp == pytest.approx(
            world.config.rdap_overlap_fraction, abs=0.2
        )
        estimate = estimate_market_size(bgp, rdap)
        assert estimate.combined_addresses >= report.rdap_addresses
        assert estimate.combined_addresses >= report.bgp_addresses

    def test_rpki_rule_evaluation_supports_adopted_rule(self, world):
        evaluations = evaluate_rules_on_rpki(world.rpki(), [10], [0])
        assert evaluations[0].premises > 100
        assert evaluations[0].fail_rate < 0.10

    def test_market_analyses_run_on_same_world(self, world):
        _h, p = regional_price_difference(world.priced_transactions())
        assert 0.0 <= p <= 1.0
        assert len(world.transfer_ledger()) > 100


class TestArchiveBackedInference:
    def test_archive_stream_gives_same_delegations(self, world, tmp_path):
        """File-backed and in-memory streams agree day by day."""
        from repro.bgp.stream import RouteStream

        date = world.config.bgp_start + datetime.timedelta(days=5)
        source = world.announcement_source()
        system = world.collector_system()
        system.write_day(source(date), date, tmp_path)

        archive_stream = RouteStream(system, archive_dir=tmp_path)
        memory_stream = world.stream()
        inference = DelegationInference(
            InferenceConfig.extended(), world.as2org()
        )
        archive_table = archive_stream.pair_table_on(date)
        memory_table = memory_stream.pair_table_on(date)
        assert list(archive_table.rows()) == list(memory_table.rows())
        monitors = memory_stream.monitor_count()
        from_archive = inference.infer_day_from_table(
            archive_table, monitors, date
        )
        from_memory = inference.infer_day_from_table(
            memory_table, monitors, date
        )
        assert {d.key() for d in from_archive} == {
            d.key() for d in from_memory
        }
