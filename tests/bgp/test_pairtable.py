"""Tests for the columnar PairTable and its collector fast path.

``CollectorSystem.pair_table_for_day`` must carry exactly the same
facts as the dict aggregator it replaced (``pair_counts_for_day``, now
the oracle in ``pair_counts_oracle.py``) — per-prefix origin
uniqueness, sole origin, and distinct monitor count — without
materializing per-record objects.
"""

import datetime

import pytest

from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import Announcement
from repro.bgp.propagation import PropagationModel
from repro.bgp.rib import UNIQUE_ORIGIN, PairTable
from repro.bgp.stream import RouteStream
from repro.bgp.topology import ASTopology
from repro.netbase.lpm import pack
from repro.netbase.prefix import IPv4Prefix
from tests.bgp.pair_counts_oracle import pair_counts_for_day

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


def _table_rows(table):
    return sorted(table.rows())


def _reference_rows(system, announcements):
    pairs = pair_counts_for_day(system, announcements)
    return sorted(
        (
            prefix,
            origins.sole_origin() if origins.is_unique else None,
            count,
        )
        for prefix, (origins, count) in pairs.items()
    )


class TestFromAggregate:
    def test_columns_sorted_by_packed_key(self):
        table = PairTable.from_aggregate({
            pack(p("11.0.0.0/8").network, 8): (65001, True, 4),
            pack(p("10.0.0.0/8").network, 8): (65002, True, 2),
            pack(p("10.0.0.0/16").network, 16): (0, False, 3),
        })
        assert list(table.keys) == sorted(table.keys)
        rows = list(table.rows())
        assert rows == [
            (p("10.0.0.0/8"), 65002, 2),
            (p("10.0.0.0/16"), None, 3),
            (p("11.0.0.0/8"), 65001, 4),
        ]

    def test_non_unique_origin_zeroed(self):
        table = PairTable.from_aggregate({
            pack(p("10.0.0.0/8").network, 8): (65001, False, 1),
        })
        assert table.origins[0] == 0
        assert table.flags[0] & UNIQUE_ORIGIN == 0

    def test_column_length_mismatch_rejected(self):
        from array import array

        with pytest.raises(ValueError, match="equal length"):
            PairTable(array("Q", [1]), array("Q"), array("B"), array("I"))

    def test_len_and_bool(self):
        empty = PairTable.from_aggregate({})
        assert len(empty) == 0 and not empty
        one = PairTable.from_aggregate({pack(0, 0): (1, True, 1)})
        assert len(one) == 1 and one


class TestFromPairs:
    def test_round_trips_pair_counts(self, system):
        announcements = [
            Announcement(p("101.100.0.0/24"), 30),
            Announcement(p("101.101.0.0/24"), 31),
            Announcement(p("101.101.0.0/24"), 30),  # MOAS
        ]
        pairs = pair_counts_for_day(system, announcements)
        table = PairTable.from_pairs(pairs)
        assert _table_rows(table) == _reference_rows(system, announcements)


class TestCollectorFastPath:
    def _assert_equivalent(self, system, announcements):
        table = system.pair_table_for_day(announcements)
        assert _table_rows(table) == _reference_rows(system, announcements)

    def test_plain_day(self, system):
        self._assert_equivalent(system, [
            Announcement(p("101.100.0.0/24"), 30),
            Announcement(p("101.101.0.0/24"), 31),
        ])

    def test_moas_pair_not_unique(self, system):
        announcements = [
            Announcement(p("101.100.0.0/24"), 30),
            Announcement(p("101.100.0.0/24"), 31),
        ]
        table = system.pair_table_for_day(announcements)
        rows = list(table.rows())
        assert rows == [(p("101.100.0.0/24"), None, 4)]
        self._assert_equivalent(system, announcements)

    def test_as_set_origin_not_unique(self, system):
        announcements = [
            Announcement(p("101.100.0.0/24"), 30, as_set_origin=True),
        ]
        table = system.pair_table_for_day(announcements)
        assert list(table.rows()) == [(p("101.100.0.0/24"), None, 4)]
        self._assert_equivalent(system, announcements)

    def test_restricted_monitors(self, system):
        announcements = [
            Announcement(
                p("101.100.0.0/24"), 30,
                restricted_to_monitors=frozenset({10}),
            ),
            Announcement(p("101.101.0.0/24"), 30),
        ]
        table = system.pair_table_for_day(announcements)
        assert list(table.rows()) == [
            (p("101.100.0.0/24"), 30, 1),
            (p("101.101.0.0/24"), 30, 4),
        ]
        self._assert_equivalent(system, announcements)

    def test_unknown_origin_invisible(self, system):
        announcements = [Announcement(p("101.100.0.0/24"), 999)]
        assert len(system.pair_table_for_day(announcements)) == 0
        self._assert_equivalent(system, announcements)

    def test_duplicate_announcements_merge_monitors(self, system):
        announcements = [
            Announcement(
                p("101.100.0.0/24"), 30,
                restricted_to_monitors=frozenset({10}),
            ),
            Announcement(
                p("101.100.0.0/24"), 30,
                restricted_to_monitors=frozenset({11, 21}),
            ),
        ]
        table = system.pair_table_for_day(announcements)
        assert list(table.rows()) == [(p("101.100.0.0/24"), 30, 3)]
        self._assert_equivalent(system, announcements)


class TestStreamPairTable:
    def test_source_stream_matches_pairs_on(self, system):
        announcements = [
            Announcement(p("101.100.0.0/24"), 30),
            Announcement(p("101.101.0.0/24"), 31),
            Announcement(p("101.101.0.0/24"), 30),
        ]
        stream = RouteStream(system, source=lambda date: announcements)
        date = D(2020, 1, 1)
        table = stream.pair_table_on(date)
        reference = pair_counts_for_day(system, announcements)
        expected = sorted(
            (
                prefix,
                origins.sole_origin() if origins.is_unique else None,
                count,
            )
            for prefix, (origins, count) in reference.items()
        )
        assert _table_rows(table) == expected


def _sample_table():
    return PairTable.from_aggregate({
        pack(p("10.0.0.0/8").network, 8): (65001, True, 3),
        pack(p("10.1.0.0/16").network, 16): (65002, True, 2),
        pack(p("172.16.0.0/12").network, 12): (0, False, 4),
        pack(p("192.0.2.0/24").network, 24): (65003, True, 1),
    })


class TestFromBuffer:
    """The zero-copy construction path and its edges."""

    def test_round_trips_through_bytes(self):
        table = _sample_table()
        rebuilt = PairTable.from_buffer(table.to_bytes(), len(table))
        assert _table_rows(rebuilt) == _table_rows(table)
        assert rebuilt.is_buffer_backed

    def test_zero_pair_table(self):
        empty = PairTable.from_buffer(b"", 0)
        assert len(empty) == 0
        assert not empty
        assert _table_rows(empty) == []
        # And an empty table round-trips through the codec.
        assert empty.to_bytes() == b""

    def test_truncated_buffer_rejected(self):
        table = _sample_table()
        data = table.to_bytes()
        with pytest.raises(ValueError, match="need"):
            PairTable.from_buffer(data[:-1], len(table))
        with pytest.raises(ValueError, match="need"):
            PairTable.from_buffer(data, len(table) + 1)

    def test_readonly_view_over_shared_memory(self):
        # The fan-in path: a worker serializes into a segment, the
        # parent adopts a read-only view of it.
        from multiprocessing import shared_memory

        table = _sample_table()
        data = table.to_bytes()
        segment = shared_memory.SharedMemory(create=True, size=len(data))
        try:
            segment.buf[:len(data)] = data
            view = memoryview(segment.buf)[:len(data)].toreadonly()
            adopted = PairTable.from_buffer(view, len(table))
            assert _table_rows(adopted) == _table_rows(table)
            assert adopted.is_buffer_backed
            # Read-only views refuse mutation rather than corrupting
            # the shared segment.
            with pytest.raises(TypeError):
                adopted.keys[0] = 0
            copy = adopted.materialize()
            assert not copy.is_buffer_backed
            assert _table_rows(copy) == _table_rows(table)
            del adopted, copy
            view.release()
        finally:
            segment.close()
            segment.unlink()


class TestMaterializeCounter:
    def test_counts_only_buffer_backed_copies(self):
        table = _sample_table()
        before = PairTable.materialize_count
        assert table.materialize() is table
        assert PairTable.materialize_count == before
        mapped = PairTable.from_buffer(table.to_bytes(), len(table))
        mapped.materialize()
        assert PairTable.materialize_count == before + 1


class TestPopcount:
    """``_popcount`` is ``int.bit_count`` where it exists (3.10+); the
    ``bin().count`` fallback serves 3.9 and must agree with it."""

    MASKS = [0, 1, 2 ** 64 - 1, 2 ** 200 + 5]

    def test_fallback_counts_set_bits(self):
        from repro.bgp.collector import _bin_popcount

        assert [_bin_popcount(m) for m in self.MASKS] == [0, 1, 64, 3]

    def test_bound_implementation_agrees_with_fallback(self):
        import random

        from repro.bgp.collector import _bin_popcount, _popcount

        rng = random.Random(7)
        masks = self.MASKS + [rng.getrandbits(96) for _ in range(200)]
        assert [_popcount(m) for m in masks] == [
            _bin_popcount(m) for m in masks
        ]
