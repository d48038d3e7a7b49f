"""Tests for collectors, archives, streams, RIBs, and sanitization."""

import datetime

import pytest

from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import Announcement, RouteRecord
from repro.bgp.propagation import PropagationModel
from repro.bgp.rib import RoutingTable
from repro.bgp.sanitize import SanitizeStats, sanitize_records
from repro.bgp.stream import RouteStream, date_range, prefix_origin_pairs
from repro.bgp.topology import ASTopology
from repro.errors import CollectorDataError
from repro.netbase.aspath import ASPath
from repro.netbase.prefix import IPv4Prefix

D = datetime.date


def p(text):
    return IPv4Prefix.parse(text)


@pytest.fixture
def topology():
    t = ASTopology()
    for asn, tier in [(10, 1), (11, 1), (20, 2), (21, 2), (30, 3), (31, 3)]:
        t.add_as(asn, tier=tier)
    t.add_peering(10, 11)
    t.add_customer_provider(20, 10)
    t.add_customer_provider(21, 11)
    t.add_customer_provider(30, 20)
    t.add_customer_provider(31, 21)
    return t


@pytest.fixture
def system(topology):
    model = PropagationModel(topology)
    return CollectorSystem(
        [Collector("rrc00", [10, 20]), Collector("route-views2", [11, 21])],
        model,
    )


class TestCollector:
    def test_monitor_validation(self):
        with pytest.raises(CollectorDataError):
            Collector("", [10])
        with pytest.raises(CollectorDataError):
            Collector("rrc00", [])

    def test_records_for_day(self, system):
        announcements = [Announcement(p("101.100.0.0/24"), 30)]
        records = list(
            system.records_for_day(announcements, D(2020, 1, 1))
        )
        # All four monitors see the stub route.
        assert len(records) == 4
        assert all(r.prefix == p("101.100.0.0/24") for r in records)
        assert all(r.origin_asn() == 30 for r in records)

    def test_restricted_propagation(self, system):
        announcement = Announcement(
            p("101.100.0.0/24"), 30,
            restricted_to_monitors=frozenset({10}),
        )
        records = list(system.records_for_day([announcement], D(2020, 1, 1)))
        assert [r.monitor_asn for r in records] == [10]

    def test_restriction_cannot_create_visibility(self, topology):
        # Disconnect 31 by restricting to a monitor that cannot see it
        # topologically: remove tier-1 peering first.
        t = ASTopology()
        for asn in (20, 21, 30, 31):
            t.add_as(asn)
        t.add_customer_provider(30, 20)
        t.add_customer_provider(31, 21)
        system = CollectorSystem(
            [Collector("rrc00", [20, 21])], PropagationModel(t)
        )
        announcement = Announcement(
            p("101.100.0.0/24"), 30,
            restricted_to_monitors=frozenset({21}),
        )
        assert list(system.records_for_day([announcement], D(2020, 1, 1))) == []

    def test_unknown_origin_produces_nothing(self, system):
        records = list(system.records_for_day(
            [Announcement(p("101.100.0.0/24"), 999)], D(2020, 1, 1)
        ))
        assert records == []

    def test_as_set_origin(self, system):
        announcement = Announcement(
            p("101.100.0.0/24"), 30, as_set_origin=True
        )
        records = list(system.records_for_day([announcement], D(2020, 1, 1)))
        assert records
        for record in records:
            assert not record.as_path.origin().is_unique

    def test_all_monitors(self, system):
        assert system.all_monitors() == {10, 11, 20, 21}

    def test_duplicate_collector_rejected(self, topology):
        model = PropagationModel(topology)
        with pytest.raises(CollectorDataError):
            CollectorSystem(
                [Collector("rrc00", [10]), Collector("rrc00", [11])], model
            )


class TestArchive:
    def test_write_read_round_trip(self, system, tmp_path):
        announcements = [
            Announcement(p("101.100.0.0/24"), 30),
            Announcement(p("101.101.0.0/24"), 31),
        ]
        paths = system.write_day(announcements, D(2020, 1, 1), tmp_path)
        assert len(paths) == 2
        records = list(CollectorSystem.read_day(tmp_path, D(2020, 1, 1)))
        in_memory = list(
            system.records_for_day(announcements, D(2020, 1, 1))
        )
        assert {(r.collector, r.monitor_asn, r.prefix, str(r.as_path))
                for r in records} == {
            (r.collector, r.monitor_asn, r.prefix, str(r.as_path))
            for r in in_memory
        }

    def test_missing_day_raises(self, system, tmp_path):
        system.write_day([], D(2020, 1, 1), tmp_path)
        with pytest.raises(CollectorDataError):
            list(CollectorSystem.read_day(tmp_path, D(2020, 1, 2)))

    def test_corrupt_line_raises(self, system, tmp_path):
        system.write_day([], D(2020, 1, 1), tmp_path)
        path = tmp_path / "rrc00" / "2020-01-01.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CollectorDataError):
            list(CollectorSystem.read_day(tmp_path, D(2020, 1, 1)))

    def test_single_collector_read(self, system, tmp_path):
        system.write_day(
            [Announcement(p("101.100.0.0/24"), 30)], D(2020, 1, 1), tmp_path
        )
        records = list(
            CollectorSystem.read_day(tmp_path, D(2020, 1, 1), "rrc00")
        )
        assert {r.collector for r in records} == {"rrc00"}


class TestStream:
    def test_source_stream(self, system):
        def source(date):
            return [Announcement(p("101.100.0.0/24"), 30)]

        stream = RouteStream(system, source=source)
        days = [
            list(stream.records_on(date))
            for date in date_range(D(2020, 1, 1), D(2020, 1, 4))
        ]
        assert len(days) == 3
        assert all(len(records) == 4 for records in days)
        assert stream.monitor_count() == 4

    def test_archive_stream(self, system, tmp_path):
        system.write_day(
            [Announcement(p("101.100.0.0/24"), 30)], D(2020, 1, 1), tmp_path
        )
        stream = RouteStream(system, archive_dir=tmp_path)
        assert len(list(stream.records_on(D(2020, 1, 1)))) == 4

    def test_requires_exactly_one_backend(self, system, tmp_path):
        with pytest.raises(CollectorDataError):
            RouteStream(system)
        with pytest.raises(CollectorDataError):
            RouteStream(system, source=lambda d: [], archive_dir=tmp_path)

    def test_date_range(self):
        days = list(date_range(D(2020, 1, 1), D(2020, 1, 10), 3))
        assert days == [D(2020, 1, 1), D(2020, 1, 4), D(2020, 1, 7)]
        with pytest.raises(ValueError):
            list(date_range(D(2020, 1, 1), D(2020, 1, 10), 0))

    def test_prefix_origin_pairs(self, system):
        records = list(system.records_for_day(
            [Announcement(p("101.100.0.0/24"), 30)], D(2020, 1, 1)
        ))
        pairs = prefix_origin_pairs(records)
        origin_set, monitor_count = pairs[p("101.100.0.0/24")]
        assert origin_set.sole_origin() == 30
        assert monitor_count == 4

    def test_prefix_origin_pairs_moas(self, system):
        records = list(system.records_for_day(
            [
                Announcement(p("101.100.0.0/24"), 30),
                Announcement(p("101.100.0.0/24"), 31),
            ],
            D(2020, 1, 1),
        ))
        origin_set, _count = prefix_origin_pairs(records)[p("101.100.0.0/24")]
        assert not origin_set.is_unique
        assert set(origin_set) == {30, 31}


class TestRoutingTable:
    def test_announce_withdraw(self):
        rib = RoutingTable("rrc00", 10)
        path = ASPath.from_asns([10, 20, 30])
        assert rib.announce(p("101.100.0.0/24"), path)
        assert not rib.announce(p("101.100.0.0/24"), path)  # no change
        assert [r.as_path for r in rib.records(D(2020, 1, 1))] == [path]
        assert rib.withdraw(p("101.100.0.0/24"))
        assert not rib.withdraw(p("101.100.0.0/24"))

    def test_reconcile_produces_updates(self):
        rib = RoutingTable("rrc00", 10)
        day1 = {
            p("101.100.0.0/24"): ASPath.from_asns([10, 30]),
            p("101.101.0.0/24"): ASPath.from_asns([10, 31]),
        }
        ann, wd = rib.reconcile(day1, D(2020, 1, 1))
        assert len(ann) == 2 and not wd
        day2 = {
            p("101.100.0.0/24"): ASPath.from_asns([10, 20, 30]),  # path change
        }
        ann, wd = rib.reconcile(day2, D(2020, 1, 2))
        assert len(ann) == 1
        assert [w.prefix for w in wd] == [p("101.101.0.0/24")]
        assert len(rib) == 1

    def test_records_dump(self):
        rib = RoutingTable("rrc00", 10)
        rib.announce(p("101.100.0.0/24"), ASPath.from_asns([10, 30]))
        records = list(rib.records(D(2020, 1, 1)))
        assert len(records) == 1
        assert records[0].collector == "rrc00"


class TestSanitize:
    def _record(self, prefix, path):
        return RouteRecord(
            collector="rrc00",
            monitor_asn=10,
            prefix=p(prefix),
            as_path=ASPath.parse(path),
            date=D(2020, 1, 1),
        )

    def test_clean_record_kept(self):
        stats = SanitizeStats()
        records = [self._record("101.100.0.0/24", "10 20 30")]
        kept = list(sanitize_records(records, stats))
        assert len(kept) == 1
        assert stats.kept == 1 and stats.removed == 0

    def test_bogon_removed(self):
        stats = SanitizeStats()
        records = [self._record("10.0.0.0/24", "10 20 30")]
        assert list(sanitize_records(records, stats)) == []
        assert stats.bogon_prefix == 1

    def test_reserved_asn_removed(self):
        stats = SanitizeStats()
        records = [self._record("101.100.0.0/24", "10 23456 30")]
        assert list(sanitize_records(records, stats)) == []
        assert stats.reserved_asn == 1

    def test_loop_removed(self):
        stats = SanitizeStats()
        records = [self._record("101.100.0.0/24", "10 20 10 30")]
        assert list(sanitize_records(records, stats)) == []
        assert stats.as_path_loop == 1

    def test_first_matching_rule_counts(self):
        stats = SanitizeStats()
        # Bogon prefix AND loop: attributed to bogon.
        records = [self._record("10.0.0.0/24", "10 20 10 30")]
        list(sanitize_records(records, stats))
        assert stats.bogon_prefix == 1 and stats.as_path_loop == 0

    def test_stats_accounting(self):
        stats = SanitizeStats()
        records = [
            self._record("101.100.0.0/24", "10 20 30"),
            self._record("10.0.0.0/24", "10 20 30"),
        ]
        list(sanitize_records(records, stats))
        assert stats.total == 2
        assert stats.kept == 1
