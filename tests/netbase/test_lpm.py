"""Unit tests for the sorted-array LPM kernel (repro.netbase.lpm)."""

from array import array

import pytest

from repro.netbase.lpm import (
    SortedPrefixMap,
    nearest_strict_covers,
    pack,
    unpack,
)
from repro.netbase.prefix import IPv4Prefix


def P(text):
    return IPv4Prefix.parse(text)


class TestPackedKeys:
    def test_pack_round_trip(self):
        for text in ("0.0.0.0/0", "10.0.0.0/8", "203.0.113.7/32"):
            prefix = P(text)
            key = pack(prefix.network, prefix.length)
            assert unpack(key) == (prefix.network, prefix.length)

    def test_sort_order_matches_prefix_order(self):
        prefixes = [
            P("10.0.0.0/8"), P("10.0.0.0/16"), P("10.0.0.0/24"),
            P("10.1.0.0/16"), P("9.0.0.0/8"), P("0.0.0.0/0"),
        ]
        by_key = sorted(pack(p.network, p.length) for p in prefixes)
        by_tuple = sorted((p.network, p.length) for p in prefixes)
        assert [unpack(k) for k in by_key] == by_tuple


class TestSortedPrefixMap:
    def test_exact_lookup_and_contains(self):
        spm = SortedPrefixMap([(P("10.0.0.0/8"), "a"), (P("10.0.0.0/9"), "b")])
        assert spm[P("10.0.0.0/8")] == "a"
        assert spm.get(P("10.0.0.0/9")) == "b"
        assert P("10.0.0.0/10") not in spm
        assert spm.get(P("10.0.0.0/10"), "missing") == "missing"
        with pytest.raises(KeyError):
            spm[P("11.0.0.0/8")]

    def test_duplicate_inserts_last_wins(self):
        spm = SortedPrefixMap([
            (P("10.0.0.0/8"), "first"), (P("10.0.0.0/8"), "second"),
        ])
        assert len(spm) == 1
        assert spm[P("10.0.0.0/8")] == "second"

    def test_covering_shortest_first(self):
        spm = SortedPrefixMap([
            (P("10.0.0.0/8"), 8), (P("10.1.0.0/16"), 16),
            (P("10.1.2.0/24"), 24), (P("10.2.0.0/16"), -1),
        ])
        covers = list(spm.covering(P("10.1.2.128/25")))
        assert covers == [
            (P("10.0.0.0/8"), 8), (P("10.1.0.0/16"), 16),
            (P("10.1.2.0/24"), 24),
        ]
        # Exact matches count as covering.
        assert (P("10.1.2.0/24"), 24) in list(spm.covering(P("10.1.2.0/24")))

    def test_longest_match(self):
        spm = SortedPrefixMap([
            (P("0.0.0.0/0"), "default"), (P("10.0.0.0/8"), "eight"),
            (P("10.1.0.0/16"), "sixteen"),
        ])
        assert spm.longest_match(P("10.1.2.3/32")) == (P("10.1.0.0/16"), "sixteen")
        assert spm.longest_match(P("10.200.0.0/16")) == (P("10.0.0.0/8"), "eight")
        assert spm.longest_match(P("192.0.2.0/24")) == (P("0.0.0.0/0"), "default")

    def test_longest_match_empty(self):
        assert SortedPrefixMap().longest_match(P("10.0.0.0/8")) is None

    def test_covered_contiguous_slice(self):
        spm = SortedPrefixMap([
            (P("10.0.0.0/8"), 1), (P("10.0.0.0/16"), 2),
            (P("10.0.1.0/24"), 3), (P("10.1.0.0/16"), 4),
            (P("11.0.0.0/8"), 5),
        ])
        inside = list(spm.covered(P("10.0.0.0/8")))
        assert inside == [
            (P("10.0.0.0/8"), 1), (P("10.0.0.0/16"), 2),
            (P("10.0.1.0/24"), 3), (P("10.1.0.0/16"), 4),
        ]
        # The shared-network, shorter-length neighbour is filtered out.
        assert list(spm.covered(P("10.0.0.0/16"))) == [
            (P("10.0.0.0/16"), 2), (P("10.0.1.0/24"), 3),
        ]

    def test_edge_lengths(self):
        spm = SortedPrefixMap([
            (P("0.0.0.0/0"), "root"), (P("255.255.255.255/32"), "leaf"),
        ])
        assert spm.longest_match(P("255.255.255.255/32")) == \
            (P("255.255.255.255/32"), "leaf")
        assert list(spm.covering(P("255.255.255.255/32"))) == [
            (P("0.0.0.0/0"), "root"), (P("255.255.255.255/32"), "leaf"),
        ]
        assert len(list(spm.covered(P("0.0.0.0/0")))) == 2

    def test_iteration_sorted(self):
        spm = SortedPrefixMap([
            (P("11.0.0.0/8"), 2), (P("10.0.0.0/8"), 1),
            (P("10.0.0.0/16"), 3),
        ])
        assert list(spm.keys()) == [
            P("10.0.0.0/8"), P("10.0.0.0/16"), P("11.0.0.0/8"),
        ]
        assert list(spm) == list(spm.keys())
        assert bool(spm) and len(spm) == 3
        assert not SortedPrefixMap()


class TestNearestStrictCovers:
    def _covers(self, texts):
        keys = array("Q", sorted(
            pack(p.network, p.length) for p in map(P, texts)
        ))
        return keys, nearest_strict_covers(keys)

    def test_nesting_chain(self):
        keys, covers = self._covers(
            ["10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "10.0.1.0/24"]
        )
        assert covers == [-1, 0, 1, 1]

    def test_disjoint_blocks(self):
        _keys, covers = self._covers(["10.0.0.0/8", "11.0.0.0/8"])
        assert covers == [-1, -1]

    def test_sibling_after_deep_nesting(self):
        # The stack must pop the closed /24 chain before 10.128.0.0/9's
        # cover is read off the top.
        keys, covers = self._covers([
            "10.0.0.0/8", "10.0.0.0/24", "10.0.0.0/32", "10.128.0.0/9",
        ])
        assert covers == [-1, 0, 1, 0]

    def test_default_route_covers_everything(self):
        _keys, covers = self._covers(
            ["0.0.0.0/0", "10.0.0.0/8", "200.0.0.0/8"]
        )
        assert covers == [-1, 0, 0]

    def test_empty(self):
        assert nearest_strict_covers(array("Q")) == []
