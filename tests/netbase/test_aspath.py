"""Unit tests for :mod:`repro.netbase.aspath`."""

import pytest

from repro.errors import ASPathError
from repro.netbase.aspath import ASPath, ASPathSegment, SegmentType


class TestParsing:
    def test_simple_sequence(self):
        path = ASPath.parse("701 3356 13335")
        assert list(path.asns()) == [701, 3356, 13335]
        assert len(path.segments) == 1
        assert str(path) == "701 3356 13335"

    def test_with_as_set(self):
        path = ASPath.parse("701 3356 {64496,64497}")
        assert len(path.segments) == 2
        assert path.segments[1].is_set
        assert str(path) == "701 3356 {64496,64497}"

    def test_set_in_middle(self):
        path = ASPath.parse("701 {1,2} 3356")
        assert [s.is_set for s in path.segments] == [False, True, False]

    def test_empty(self):
        path = ASPath.parse("")
        assert path.segments == ()
        with pytest.raises(ASPathError):
            path.origin()

    @pytest.mark.parametrize("bad", ["701 {1,2", "701 {}", "70x1", "{a}"])
    def test_malformed(self, bad):
        with pytest.raises(ASPathError):
            ASPath.parse(bad)

    def test_from_asns(self):
        assert ASPath.from_asns([1, 2, 3]) == ASPath.parse("1 2 3")
        assert ASPath.from_asns([]).segments == ()


class TestOrigin:
    def test_sequence_origin(self):
        assert ASPath.parse("701 3356").origin().sole_origin() == 3356

    def test_as_set_origin_not_unique(self):
        origin = ASPath.parse("701 {1,2}").origin()
        assert not origin.is_unique
        assert set(origin) == {1, 2}


class TestLoops:
    def test_clean_path(self):
        assert not ASPath.parse("701 3356 13335").has_loop()

    def test_prepending_is_not_loop(self):
        assert not ASPath.parse("701 3356 3356 3356 13335").has_loop()

    def test_real_loop(self):
        assert ASPath.parse("701 3356 701").has_loop()

    def test_loop_across_prepending(self):
        assert ASPath.parse("701 701 3356 701").has_loop()

    def test_loop_via_as_set(self):
        assert ASPath.parse("701 3356 {701}").has_loop()

    def test_prepend_after_set_is_loop(self):
        # 3356 before and after a set: the set breaks adjacency.
        assert ASPath.parse("701 3356 {9} 3356").has_loop()


class TestSanitizationPredicates:
    def test_reserved_asn(self):
        assert ASPath.parse("701 0 3356").has_reserved_asn()
        assert ASPath.parse("701 23456").has_reserved_asn()
        assert not ASPath.parse("701 3356").has_reserved_asn()
        assert ASPath.parse("701 {64496}").has_reserved_asn()


class TestProtocol:
    def test_len_counts_set_as_one(self):
        assert len(ASPath.parse("701 3356 {1,2,3}")) == 3
        assert len(ASPath.parse("701 701 3356")) == 3  # prepending counts

    def test_eq_hash(self):
        a = ASPath.parse("701 3356")
        b = ASPath.from_asns([701, 3356])
        assert a == b and hash(a) == hash(b)
        assert a != ASPath.parse("701 1299")

    def test_set_equality_unordered(self):
        assert ASPath.parse("{1,2}") == ASPath.parse("{2,1}")

    def test_segment_validation(self):
        with pytest.raises(ASPathError):
            ASPathSegment(SegmentType.SEQUENCE, [])

    def test_repr_round_trip(self):
        path = ASPath.parse("701 {1,2} 3356")
        assert eval(repr(path)) == path  # noqa: S307 - controlled input
