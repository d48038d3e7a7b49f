"""Unit tests for :mod:`repro.netbase.asnum`."""

import pytest

from repro.errors import ASNumberError
from repro.netbase.asnum import (
    AS_TRANS,
    MAX_ASN,
    OriginSet,
    is_private_asn,
    is_reserved_asn,
    validate_asn,
)


class TestValidate:
    def test_accepts_valid(self):
        assert validate_asn(0) == 0
        assert validate_asn(3356) == 3356
        assert validate_asn(MAX_ASN) == MAX_ASN

    @pytest.mark.parametrize("bad", [-1, MAX_ASN + 1, "3356", 3.5, True])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ASNumberError):
            validate_asn(bad)


class TestClassification:
    def test_reserved(self):
        assert is_reserved_asn(0)
        assert is_reserved_asn(AS_TRANS)
        assert is_reserved_asn(65535)
        assert is_reserved_asn(64500)  # documentation
        assert is_reserved_asn(MAX_ASN)
        assert not is_reserved_asn(3356)
        assert not is_reserved_asn(64512)  # private, not "reserved"

    def test_private(self):
        assert is_private_asn(64512)
        assert is_private_asn(65534)
        assert is_private_asn(4_200_000_000)
        assert not is_private_asn(65535)
        assert not is_private_asn(3356)


class TestOriginSet:
    def test_single(self):
        o = OriginSet.single(3356)
        assert o.is_unique
        assert o.sole_origin() == 3356
        assert 3356 in o and 1299 not in o
        assert len(o) == 1

    def test_moas_not_unique(self):
        o = OriginSet([3356, 1299])
        assert not o.is_unique
        with pytest.raises(ASNumberError):
            o.sole_origin()

    def test_as_set_not_unique_even_if_singleton(self):
        o = OriginSet([3356], from_as_set=True)
        assert not o.is_unique
        with pytest.raises(ASNumberError):
            o.sole_origin()

    def test_merge(self):
        merged = OriginSet.single(1).merge(OriginSet.single(2))
        assert set(merged) == {1, 2}
        assert not merged.from_as_set
        tainted = merged.merge(OriginSet([3], from_as_set=True))
        assert tainted.from_as_set

    def test_merge_same_origin_stays_unique(self):
        merged = OriginSet.single(7).merge(OriginSet.single(7))
        assert merged.is_unique

    def test_empty_rejected(self):
        with pytest.raises(ASNumberError):
            OriginSet([])

    def test_eq_hash(self):
        assert OriginSet([1, 2]) == OriginSet([2, 1])
        assert hash(OriginSet([1, 2])) == hash(OriginSet([2, 1]))
        assert OriginSet([1]) != OriginSet([1], from_as_set=True)

    def test_iter_sorted(self):
        assert list(OriginSet([9, 3, 5])) == [3, 5, 9]
