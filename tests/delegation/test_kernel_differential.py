"""Differential tests: columnar kernel vs. the trie reference kernel.

The columnar kernel replaced the original object/trie implementation
as a pure performance change — its outputs must be byte-identical to
that reference (``reference_kernel.py``), with every attrition counter
(bogon, visibility, non-unique origin, same-org) in exact agreement,
both through the sequential API and through the parallel runner.
"""

import datetime

import pytest

from repro.asorg.as2org import As2OrgDataset, As2OrgSnapshot, Organization
from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import Announcement
from repro.bgp.propagation import PropagationModel
from repro.bgp.rib import PairTable
from repro.bgp.stream import RouteStream, prefix_origin_pairs
from repro.bgp.topology import ASTopology
from repro.delegation import (
    DailyDelegations,
    DelegationInference,
    InferenceConfig,
    InferenceResult,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.netbase.asnum import OriginSet
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


class TestHandBuiltTables:
    """Edge cases of the one-pass kernel on hand-built tables.

    Each table goes through the kernel as a :class:`PairTable` and
    through the reference as the same ``prefix -> (OriginSet, count)``
    dict; rows and all five attrition counters must agree.  Ten
    monitors at threshold 0.5 keep pairs seen by five or more.
    """

    MONITORS = 10
    DATE = D(2020, 1, 1)

    @pytest.fixture(scope="class")
    def as2org(self):
        snapshot = As2OrgSnapshot(
            self.DATE, [Organization("ORG-A", "A"), Organization("ORG-B", "B")]
        )
        for asn, org_id in [(100, "ORG-A"), (101, "ORG-A"), (200, "ORG-B")]:
            snapshot.assign(asn, org_id)
        dataset = As2OrgDataset()
        dataset.add_snapshot(snapshot)
        return dataset

    def _check(self, rows, as2org=None):
        """Run both kernels over ``rows`` of ``(prefix, origins,
        monitors)``; returns the kernel's delegations and counters."""
        pairs = {
            IPv4Prefix.parse(text): (OriginSet(origins), monitors)
            for text, origins, monitors in rows
        }
        config = (
            InferenceConfig.baseline() if as2org is None
            else InferenceConfig.extended()
        )
        columnar = InferenceResult(DailyDelegations(), config)
        found = DelegationInference(config, as2org).infer_day_from_table(
            PairTable.from_pairs(pairs), self.MONITORS, self.DATE, columnar,
        )
        reference = InferenceResult(DailyDelegations(), config)
        expected = ReferenceInference(config, as2org).infer_day_from_pairs(
            pairs, self.MONITORS, self.DATE, reference,
        )

        def flat(delegations):
            return [
                (str(d.prefix), d.delegator_asn, d.delegatee_asn,
                 str(d.covering_prefix))
                for d in delegations
            ]

        assert [d.prefix for d in found] == sorted(d.prefix for d in found)
        assert sorted(flat(found)) == sorted(flat(expected))
        assert _counters(columnar) == _counters(reference)
        return flat(found), _counters(columnar)

    def test_cover_reaching_into_a_bogon_interval(self):
        found, counters = self._check([
            # Starts before 100.64.0.0/10 and ends inside it: a bogon.
            ("100.0.0.0/8", [1], 10),
            ("100.0.0.0/9", [2], 10),
            # Ends just before the interval: kept, and covers the /16.
            ("100.0.0.0/10", [3], 10),
            ("100.1.0.0/16", [4], 10),
            # Past the interval, under only the dropped /8 and /9.
            ("100.128.0.0/16", [5], 10),
            # 192.0.0.0/22 overlaps 192.0.0.0/24 and 192.0.2.0/24.
            ("192.0.0.0/22", [6], 10),
            ("192.0.1.0/24", [7], 10),
        ])
        assert found == [("100.1.0.0/16", 3, 4, "100.0.0.0/10")]
        assert counters == (4, 0, 0, 0, 3)

    def test_keys_past_the_last_bogon_interval(self):
        found, counters = self._check([
            ("0.0.0.0/0", [1], 10),
            ("203.0.113.0/24", [2], 10),
            ("203.0.114.0/23", [2], 10),
            ("203.0.114.0/24", [3], 10),
            ("223.255.0.0/16", [4], 10),
            ("223.255.255.0/24", [5], 10),
            ("224.0.0.0/3", [6], 10),
            ("240.1.0.0/16", [7], 10),
            ("255.255.255.255/32", [8], 10),
        ])
        assert found == [
            ("203.0.114.0/24", 2, 3, "203.0.114.0/23"),
            ("223.255.255.0/24", 4, 5, "223.255.0.0/16"),
        ]
        assert counters == (4, 0, 0, 0, 5)

    def test_chain_pops_several_levels_at_once(self):
        found, counters = self._check([
            ("20.0.0.0/8", [1], 10),
            # Filtered levels never enter the nesting chain.
            ("20.0.0.0/10", [9], 2),
            ("20.0.0.0/12", [2], 10),
            ("20.0.0.0/14", [8, 9], 10),
            ("20.0.0.0/16", [3], 10),
            ("20.0.0.0/24", [4], 10),
            # Pops the /24, /16 and /12 in one step.
            ("20.128.0.0/16", [5], 10),
            ("20.128.1.0/24", [5], 10),
            # Pops everything but the bottom: no cover at all.
            ("21.0.0.0/16", [6], 10),
            ("21.0.0.0/24", [7], 10),
        ])
        assert found == [
            ("20.0.0.0/12", 1, 2, "20.0.0.0/8"),
            ("20.0.0.0/16", 2, 3, "20.0.0.0/12"),
            ("20.0.0.0/24", 3, 4, "20.0.0.0/16"),
            ("20.128.0.0/16", 1, 5, "20.0.0.0/8"),
            ("21.0.0.0/24", 6, 7, "21.0.0.0/16"),
        ]
        assert counters == (10, 1, 1, 0, 0)

    def test_unmapped_ases_are_never_the_same_org(self, as2org):
        found, counters = self._check([
            ("30.0.0.0/8", [100], 10),
            ("30.0.0.0/16", [101], 10),     # same org: dropped
            ("30.1.0.0/16", [200], 10),     # other org
            ("30.2.0.0/16", [999], 10),     # unmapped delegatee
            ("31.0.0.0/8", [998], 10),
            ("31.0.0.0/16", [100], 10),     # unmapped delegator
            ("31.1.0.0/16", [997], 10),     # both unmapped
        ], as2org)
        assert found == [
            ("30.1.0.0/16", 100, 200, "30.0.0.0/8"),
            ("30.2.0.0/16", 100, 999, "30.0.0.0/8"),
            ("31.0.0.0/16", 998, 100, "31.0.0.0/8"),
            ("31.1.0.0/16", 998, 997, "31.0.0.0/8"),
        ]
        assert counters == (7, 0, 0, 1, 0)


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
