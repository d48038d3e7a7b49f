"""Differential tests: columnar kernel vs. the trie reference kernel.

The columnar kernel replaced the original object/trie implementation
as a pure performance change — its outputs must be byte-identical to
that reference (``reference_kernel.py``), with every attrition counter
(bogon, visibility, non-unique origin, same-org) in exact agreement,
both through the sequential API and through the parallel runner.
"""

import datetime

import pytest

from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import Announcement
from repro.bgp.propagation import PropagationModel
from repro.bgp.stream import RouteStream, prefix_origin_pairs
from repro.bgp.topology import ASTopology
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.netbase.prefix import IPv4Prefix
from repro.simulation import World, small_scenario
from tests.delegation.reference_kernel import ReferenceInference

D = datetime.date

SCENARIO = small_scenario()
START = SCENARIO.bgp_start
END = START + datetime.timedelta(days=15)


@pytest.fixture(scope="module")
def world():
    return World(SCENARIO)


@pytest.fixture(scope="module")
def as2org(world):
    return world.as2org()


def _counters(result):
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.pairs_dropped_bogon,
    )


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


class TestSequentialDifferential:
    @pytest.mark.parametrize(
        "config",
        [InferenceConfig.baseline(), InferenceConfig.extended()],
        ids=["baseline", "extended"],
    )
    def test_byte_identical_and_counter_parity(
        self, world, as2org, tmp_path, config
    ):
        columnar = DelegationInference(config, as2org).infer_range(
            world.stream(), START, END
        )
        reference = ReferenceInference(config, as2org).infer_range(
            world.stream(), START, END
        )
        assert _daily_bytes(columnar, tmp_path / "col.jsonl") == \
            _daily_bytes(reference, tmp_path / "ref.jsonl")
        assert _counters(columnar) == _counters(reference)
        assert columnar.observation_dates == reference.observation_dates

    def test_kernel_property_and_validation(self):
        # One kernel: there is nothing left to select or report.
        baseline = InferenceConfig.baseline()
        assert not hasattr(DelegationInference(baseline), "kernel")
        with pytest.raises(TypeError):
            DelegationInference(baseline, kernel="object")


class TestBogonDifferential:
    """A day containing bogon routes, entering un-sanitized.

    Exercises the two-pointer interval filter against the per-record
    ``is_bogon`` check, including the counter ordering contract
    (bogons drop before ``pairs_seen`` is charged).
    """

    @pytest.fixture()
    def stream(self):
        t = ASTopology()
        for asn, tier in [(10, 1), (20, 2), (30, 3)]:
            t.add_as(asn, tier=tier)
        t.add_customer_provider(20, 10)
        t.add_customer_provider(30, 20)
        system = CollectorSystem(
            [Collector("rrc00", [10, 20])], PropagationModel(t)
        )
        announcements = [
            Announcement(IPv4Prefix.parse("101.100.0.0/16"), 20),
            Announcement(IPv4Prefix.parse("101.100.7.0/24"), 30),
            # Bogon space: must be dropped (and counted) by both paths.
            Announcement(IPv4Prefix.parse("10.1.0.0/16"), 30),
            Announcement(IPv4Prefix.parse("192.168.0.0/24"), 20),
            Announcement(IPv4Prefix.parse("224.0.0.0/8"), 20),
        ]
        return RouteStream(system, source=lambda date: announcements)

    def test_unsanitized_day_parity(self, stream):
        from repro.delegation import DailyDelegations, InferenceResult

        config = InferenceConfig.baseline()
        date = D(2020, 1, 1)
        columnar = InferenceResult(DailyDelegations(), config)
        found = DelegationInference(config).infer_day_from_table(
            stream.pair_table_on(date), stream.monitor_count(), date,
            columnar,
        )
        reference = InferenceResult(DailyDelegations(), config)
        expected = ReferenceInference(config).infer_day_from_pairs(
            prefix_origin_pairs(stream.records_on(date)),
            stream.monitor_count(), date, reference,
        )
        assert sorted(d.key() for d in found) == \
            sorted(d.key() for d in expected)
        assert _counters(columnar) == _counters(reference)
        assert columnar.pairs_dropped_bogon == 3


class TestRunnerDifferential:
    def test_parallel_runner_matches_across_kernels(
        self, world, as2org, tmp_path
    ):
        result = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=2,
        )
        reference = ReferenceInference(
            InferenceConfig.extended(), as2org
        ).infer_range(world.stream(), START, END)
        assert _daily_bytes(result, tmp_path / "runner.jsonl") == \
            _daily_bytes(reference, tmp_path / "reference.jsonl")
        assert _counters(result) == _counters(reference)

    def test_bad_kernel_rejected(self, as2org):
        # The runner has no kernel switch left to pass a name to.
        with pytest.raises(TypeError):
            run_inference(
                WorldStreamFactory(SCENARIO), START, END,
                InferenceConfig.extended(), as2org=as2org,
                jobs=1, kernel="object",
            )


class TestJobsOneStaysInline:
    def test_jobs_one_never_spawns_pool(self, as2org, monkeypatch):
        # The jobs=1 fast path must not pay pool spawn + pickling
        # costs: creating an executor at all is the regression.
        import concurrent.futures

        def _boom(*args, **kwargs):
            raise AssertionError("jobs=1 must not create a process pool")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _boom
        )
        result = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=1,
        )
        assert result.runner_stats.days_computed == 15

    def test_single_day_window_stays_inline(self, as2org, monkeypatch):
        import concurrent.futures

        def _boom(*args, **kwargs):
            raise AssertionError(
                "single-day window must not create a process pool"
            )

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _boom
        )
        result = run_inference(
            WorldStreamFactory(SCENARIO), START,
            START + datetime.timedelta(days=1),
            InferenceConfig.extended(), as2org=as2org, jobs=4,
        )
        assert result.runner_stats.days_computed == 1
