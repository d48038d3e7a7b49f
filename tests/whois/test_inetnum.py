"""Unit tests for :mod:`repro.whois.inetnum`."""

import pytest

from repro.errors import WhoisError
from repro.netbase.prefix import IPv4Prefix, parse_address
from repro.whois.inetnum import InetnumObject, InetnumStatus, OrgObject


def make(first, last, status=InetnumStatus.ASSIGNED_PA, org="ORG-A",
         admin="AC-1", netname="NET"):
    return InetnumObject(
        first=parse_address(first),
        last=parse_address(last),
        netname=netname,
        status=status,
        org_handle=org,
        admin_handle=admin,
    )


class TestStatus:

    def test_parse(self):
        assert InetnumStatus.parse("ASSIGNED PA") is InetnumStatus.ASSIGNED_PA
        assert (
            InetnumStatus.parse("sub-allocated pa")
            is InetnumStatus.SUB_ALLOCATED_PA
        )
        with pytest.raises(WhoisError):
            InetnumStatus.parse("NONSENSE")


class TestGeometry:
    def test_aligned_range(self):
        obj = make("193.0.0.0", "193.0.0.255")
        assert obj.is_cidr_aligned
        assert obj.prefixes() == [IPv4Prefix.parse("193.0.0.0/24")]
        assert obj.primary_prefix() == IPv4Prefix.parse("193.0.0.0/24")
        assert obj.num_addresses == 256

    def test_unaligned_range(self):
        obj = make("193.0.0.16", "193.0.0.47")  # 32 addresses, unaligned
        assert not obj.is_cidr_aligned
        assert len(obj.prefixes()) == 2
        assert obj.primary_prefix() == IPv4Prefix.parse("193.0.0.0/26")

    def test_smaller_than(self):
        small = make("193.0.0.0", "193.0.0.127")  # /25-sized
        full = make("193.0.0.0", "193.0.0.255")
        assert small.smaller_than(24)
        assert not full.smaller_than(24)

    def test_handle_format(self):
        obj = make("193.0.0.0", "193.0.0.255")
        assert obj.handle == "193.0.0.0 - 193.0.0.255"

    def test_empty_range_rejected(self):
        with pytest.raises(WhoisError):
            make("193.0.0.10", "193.0.0.5")


class TestRelations:
    def test_contains(self):
        parent = make("193.0.0.0", "193.0.3.255")
        child = make("193.0.1.0", "193.0.1.255")
        assert parent.contains(child)
        assert parent.properly_contains(child)
        assert not child.contains(parent)
        assert parent.contains(parent)
        assert not parent.properly_contains(parent)


class TestOrgObject:
    def test_basic(self):
        org = OrgObject(handle="ORG-A", name="Example Org")
        assert org.handle == "ORG-A"

    def test_empty_handle_rejected(self):
        with pytest.raises(WhoisError):
            OrgObject(handle="", name="x")
