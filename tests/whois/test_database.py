"""Unit tests for :mod:`repro.whois.database` and snapshots."""

import pytest

from repro.errors import ObjectNotFoundError, WhoisError
from repro.netbase.prefix import IPv4Prefix, parse_address
from repro.whois.database import WhoisDatabase
from repro.whois.inetnum import InetnumObject, InetnumStatus, OrgObject
from repro.whois.snapshot import (
    database_from_snapshot,
    parse_snapshot,
    read_snapshot_file,
    render_snapshot,
    write_snapshot_file,
)


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


@pytest.fixture
def database():
    db = WhoisDatabase()
    db.add_org(OrgObject("ORG-LIR", "Big LIR"))
    db.add_org(OrgObject("ORG-CUST", "Customer"))
    db.add_inetnum(make("193.0.0.0", "193.0.255.255",
                        status=InetnumStatus.ALLOCATED_PA, org="ORG-LIR"))
    db.add_inetnum(make("193.0.4.0", "193.0.7.255",
                        status=InetnumStatus.SUB_ALLOCATED_PA,
                        org="ORG-CUST", admin="AC-2"))
    db.add_inetnum(make("193.0.4.0", "193.0.4.255",
                        status=InetnumStatus.ASSIGNED_PA,
                        org="ORG-CUST", admin="AC-2"))
    return db


class TestStore:
    def test_len_and_contains(self, database):
        assert len(database) == 3
        assert make("193.0.4.0", "193.0.4.255") in database

    def test_duplicate_rejected(self, database):
        with pytest.raises(WhoisError):
            database.add_inetnum(make("193.0.4.0", "193.0.4.255"))

    def test_remove(self, database):
        obj = database.inetnum(
            parse_address("193.0.4.0"), parse_address("193.0.4.255")
        )
        database.remove_inetnum(obj)
        assert len(database) == 2
        with pytest.raises(ObjectNotFoundError):
            database.inetnum(
                parse_address("193.0.4.0"), parse_address("193.0.4.255")
            )

    def test_remove_by_range(self, database):
        # Any object with a stored range removes the stored one, from
        # the index as well as the store.
        database.remove_inetnum(make("193.0.4.0", "193.0.4.255",
                                     netname="OTHER"))
        assert len(database) == 2
        assert database.most_specific_containing(
            IPv4Prefix.parse("193.0.4.0/25")
        ).last == parse_address("193.0.7.255")

    def test_org_lookup(self, database):
        assert database.org("ORG-LIR").name == "Big LIR"
        with pytest.raises(ObjectNotFoundError):
            database.org("ORG-NONE")
        with pytest.raises(WhoisError):
            database.add_org(OrgObject("ORG-LIR", "dup"))

    def test_by_status(self, database):
        assert len(database.by_status(InetnumStatus.ASSIGNED_PA)) == 1
        assert len(database.by_status(InetnumStatus.SUB_ALLOCATED_PA)) == 1
        assert len(database.by_status(InetnumStatus.LEGACY)) == 0

    def test_inetnums_sorted(self, database):
        firsts = [o.first for o in database.inetnums()]
        assert firsts == sorted(firsts)


class TestHierarchy:
    def test_parent_of(self, database):
        child = database.inetnum(
            parse_address("193.0.4.0"), parse_address("193.0.4.255")
        )
        parent = database.parent_of(child)
        assert parent is not None
        assert parent.status is InetnumStatus.SUB_ALLOCATED_PA

    def test_parent_skips_levels_correctly(self, database):
        mid = database.inetnum(
            parse_address("193.0.4.0"), parse_address("193.0.7.255")
        )
        parent = database.parent_of(mid)
        assert parent is not None
        assert parent.status is InetnumStatus.ALLOCATED_PA

    def test_top_has_no_parent(self, database):
        top = database.inetnum(
            parse_address("193.0.0.0"), parse_address("193.0.255.255")
        )
        assert database.parent_of(top) is None

    def test_children_of(self, database):
        top = database.inetnum(
            parse_address("193.0.0.0"), parse_address("193.0.255.255")
        )
        children = database.children_of(top)
        assert len(children) == 1
        assert children[0].status is InetnumStatus.SUB_ALLOCATED_PA

    def test_unaligned_parent(self):
        db = WhoisDatabase()
        db.add_inetnum(make("10.0.0.0", "10.0.3.255",
                            status=InetnumStatus.ALLOCATED_PA))
        odd = make("10.0.0.16", "10.0.0.47")  # unaligned child
        db.add_inetnum(odd)
        parent = db.parent_of(odd)
        assert parent is not None
        assert parent.status is InetnumStatus.ALLOCATED_PA

    def test_find_exact_prefix(self, database):
        found = database.find_exact_prefix(IPv4Prefix.parse("193.0.4.0/24"))
        assert found is not None
        assert found.status is InetnumStatus.ASSIGNED_PA
        assert database.find_exact_prefix(
            IPv4Prefix.parse("193.0.5.0/24")
        ) is None

    def test_most_specific_containing(self, database):
        obj = database.most_specific_containing(
            IPv4Prefix.parse("193.0.4.128/25")
        )
        assert obj is not None
        assert obj.status is InetnumStatus.ASSIGNED_PA
        outside = database.most_specific_containing(
            IPv4Prefix.parse("8.8.8.0/24")
        )
        assert outside is None


class TestSnapshot:
    def test_render_parse_round_trip(self, database):
        text = render_snapshot(database.inetnums())
        parsed = list(parse_snapshot(text))
        assert len(parsed) == 3
        assert {o.key() for o in parsed} == {
            o.key() for o in database.inetnums()
        }
        assert all(
            a.status is b.status
            for a, b in zip(parsed, database.inetnums())
        )

    def test_file_round_trip(self, database, tmp_path):
        path = write_snapshot_file(
            database.inetnums(), tmp_path / "ripe.db.inetnum"
        )
        loaded = read_snapshot_file(path)
        assert len(loaded) == 3

    def test_database_from_snapshot(self, database):
        objs = list(database.inetnums())
        rebuilt = database_from_snapshot(objs, database.orgs())
        assert len(rebuilt) == len(database)
        assert rebuilt.org("ORG-LIR").name == "Big LIR"

    def test_parse_skips_comments(self):
        text = (
            "% RIPE database dump\n"
            "inetnum:        193.0.0.0 - 193.0.0.255\n"
            "netname:        TEST\n"
            "status:         ASSIGNED PA\n"
            "org:            ORG-A\n"
            "admin-c:        AC-1\n"
        )
        objs = list(parse_snapshot(text))
        assert len(objs) == 1
        assert objs[0].netname == "TEST"

    def test_parse_malformed(self):
        from repro.errors import DatasetError
        with pytest.raises(DatasetError):
            list(parse_snapshot("inetnum 193.0.0.0\nstatus ASSIGNED PA"))
