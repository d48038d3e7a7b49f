"""Unit tests for :mod:`repro.netbase.prefix`."""

import pytest

from repro.errors import PrefixError
from repro.netbase.prefix import (
    MAX_ADDRESS,
    IPv4Prefix,
    format_address,
    parse_address,
)


class TestParseAddress:
    def test_round_trip(self):
        for text in ["0.0.0.0", "10.1.2.3", "192.0.2.255", "255.255.255.255"]:
            assert format_address(parse_address(text)) == text

    def test_value(self):
        assert parse_address("1.2.3.4") == 0x01020304
        assert parse_address("0.0.0.0") == 0
        assert parse_address("255.255.255.255") == MAX_ADDRESS

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "256.0.0.0", "1.2.3.-4", "a.b.c.d",
         "01.2.3.4", "1.2.3.4/24", " 1.2.3.4"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(PrefixError):
            parse_address(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(PrefixError):
            format_address(-1)
        with pytest.raises(PrefixError):
            format_address(MAX_ADDRESS + 1)


class TestConstruction:
    def test_parse_and_str(self):
        p = IPv4Prefix.parse("192.0.2.0/24")
        assert str(p) == "192.0.2.0/24"
        assert p.network == 0xC0000200
        assert p.length == 24

    def test_bare_address_is_slash_32(self):
        assert IPv4Prefix.parse("10.0.0.1").length == 32

    def test_strict_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            IPv4Prefix.parse("192.0.2.1/24")

    def test_non_strict_masks_host_bits(self):
        p = IPv4Prefix.parse("192.0.2.1/24", strict=False)
        assert str(p) == "192.0.2.0/24"

    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "10.0.0.0/-1",
                                     "10.0.0.0/x", "10.0.0.0/"])
    def test_bad_length(self, bad):
        with pytest.raises(PrefixError):
            IPv4Prefix.parse(bad)

    def test_immutable(self):
        p = IPv4Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            p.length = 9  # type: ignore[misc]

    def test_zero_length(self):
        p = IPv4Prefix.parse("0.0.0.0/0")
        assert p.num_addresses == 2 ** 32
        assert p.contains_address(MAX_ADDRESS)


class TestProperties:
    def test_broadcast_and_count(self):
        p = IPv4Prefix.parse("192.0.2.0/24")
        assert p.broadcast == parse_address("192.0.2.255")
        assert p.num_addresses == 256

    def test_slash_32(self):
        p = IPv4Prefix.parse("1.2.3.4/32")
        assert p.num_addresses == 1
        assert p.broadcast == p.network


class TestRelations:
    def test_covers(self):
        big = IPv4Prefix.parse("10.0.0.0/8")
        small = IPv4Prefix.parse("10.1.0.0/16")
        assert big.covers(small)
        assert not small.covers(big)
        assert big.covers(big)

    def test_subnet_relations(self):
        big = IPv4Prefix.parse("10.0.0.0/8")
        small = IPv4Prefix.parse("10.1.0.0/16")
        assert big.covers(small)
        assert not small.covers(big)
        assert big.covers(big)

    def test_overlaps(self):
        a = IPv4Prefix.parse("10.0.0.0/8")
        b = IPv4Prefix.parse("10.255.0.0/16")
        c = IPv4Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_contains_dunder(self):
        p = IPv4Prefix.parse("192.0.2.0/24")
        assert IPv4Prefix.parse("192.0.2.128/25") in p
        assert parse_address("192.0.2.7") in p
        assert parse_address("192.0.3.7") not in p


class TestDerivation:
    def test_supernet(self):
        p = IPv4Prefix.parse("10.1.0.0/16")
        assert str(p.supernet()) == "10.0.0.0/15"
        assert str(p.supernet(8)) == "10.0.0.0/8"
        with pytest.raises(PrefixError):
            p.supernet(17)

    def test_subnets(self):
        p = IPv4Prefix.parse("10.0.0.0/23")
        subs = list(p.subnets())
        assert [str(s) for s in subs] == ["10.0.0.0/24", "10.0.1.0/24"]
        assert len(list(p.subnets(26))) == 8
        with pytest.raises(PrefixError):
            list(p.subnets(22))

    def test_halves_and_sibling(self):
        p = IPv4Prefix.parse("10.0.0.0/24")
        low, high = p.halves()
        assert str(low) == "10.0.0.0/25"
        assert str(high) == "10.0.0.128/25"
        assert low.sibling() == high
        assert high.sibling() == low
        with pytest.raises(PrefixError):
            IPv4Prefix.parse("0.0.0.0/0").sibling()

    def test_bit(self):
        p = IPv4Prefix.parse("128.0.0.0/1")
        assert p.bit(0) == 1
        p2 = IPv4Prefix.parse("64.0.0.0/2")
        assert (p2.bit(0), p2.bit(1)) == (0, 1)
        with pytest.raises(PrefixError):
            p.bit(32)


class TestFromRange:
    def test_exact_block(self):
        p = IPv4Prefix.parse("10.0.0.0/24")
        assert IPv4Prefix.from_range(p.network, p.broadcast) == [p]

    def test_unaligned_range_splits(self):
        first = parse_address("10.0.0.128")
        last = parse_address("10.0.1.255")
        blocks = IPv4Prefix.from_range(first, last)
        assert [str(b) for b in blocks] == ["10.0.0.128/25", "10.0.1.0/24"]
        assert sum(b.num_addresses for b in blocks) == last - first + 1

    def test_single_address(self):
        a = parse_address("1.2.3.4")
        assert IPv4Prefix.from_range(a, a) == [IPv4Prefix.parse("1.2.3.4/32")]

    def test_whole_space(self):
        blocks = IPv4Prefix.from_range(0, MAX_ADDRESS)
        assert blocks == [IPv4Prefix.parse("0.0.0.0/0")]

    def test_empty_range_rejected(self):
        with pytest.raises(PrefixError):
            IPv4Prefix.from_range(5, 4)


class TestOrderingAndHashing:
    def test_sort_order(self):
        texts = ["10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "10.0.1.0/24",
                 "11.0.0.0/8"]
        prefixes = [IPv4Prefix.parse(t) for t in texts]
        assert sorted(reversed(prefixes)) == prefixes

    def test_covering_sorts_before_covered(self):
        cover = IPv4Prefix.parse("10.0.0.0/8")
        inner = IPv4Prefix.parse("10.0.0.0/24")
        assert sorted([inner, cover]) == [cover, inner]

    def test_hash_eq(self):
        a = IPv4Prefix.parse("10.0.0.0/8")
        b = IPv4Prefix(0x0A000000, 8)
        assert a == b and hash(a) == hash(b)
        assert a != IPv4Prefix.parse("10.0.0.0/9")

    def test_comparisons_with_other_types(self):
        p = IPv4Prefix.parse("10.0.0.0/8")
        assert p != "10.0.0.0/8"
        with pytest.raises(TypeError):
            _ = p < "10.0.0.0/8"  # type: ignore[operator]

    def test_repr_round_trip(self):
        p = IPv4Prefix.parse("198.51.100.0/24")
        assert eval(repr(p)) == p  # noqa: S307 - controlled input
