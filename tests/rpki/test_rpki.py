"""Unit tests for the RPKI substrate."""

import datetime

import pytest

from repro.errors import RpkiError
from repro.netbase.prefix import IPv4Prefix
from repro.rpki.database import RoaDatabase, RpkiDelegation
from repro.rpki.roa import Roa, ValidationState, validate_origin

D = datetime.date


def p(text):
    return IPv4Prefix.parse(text)


class TestRoa:
    def test_default_max_length(self):
        roa = Roa(p("193.0.0.0/16"), 64500)
        assert roa.max_length == 16

    def test_authorizes(self):
        roa = Roa(p("193.0.0.0/16"), 64500, max_length=24)
        assert roa.authorizes(p("193.0.0.0/16"), 64500)
        assert roa.authorizes(p("193.0.5.0/24"), 64500)
        assert not roa.authorizes(p("193.0.5.0/25"), 64500)  # too long
        assert not roa.authorizes(p("193.0.5.0/24"), 64501)  # wrong AS
        assert not roa.authorizes(p("194.0.0.0/16"), 64500)  # not covered

    def test_invalid_max_length(self):
        with pytest.raises(RpkiError):
            Roa(p("193.0.0.0/16"), 64500, max_length=8)
        with pytest.raises(RpkiError):
            Roa(p("193.0.0.0/16"), 64500, max_length=33)

    def test_csv_round_trip(self):
        roa = Roa(p("193.0.0.0/16"), 64500, max_length=24)
        assert Roa.from_csv_row(roa.to_csv_row()) == roa

    @pytest.mark.parametrize("bad", ["", "foo", "AS1,bad,24",
                                     "64500,1.0.0.0/24,24", "AS1,1.0.0.0/24"])
    def test_csv_malformed(self, bad):
        with pytest.raises(RpkiError):
            Roa.from_csv_row(bad)


class TestValidation:
    ROAS = [
        Roa(p("193.0.0.0/16"), 64500, max_length=20),
        Roa(p("193.0.0.0/24"), 64501),
    ]

    def test_valid(self):
        assert validate_origin(
            self.ROAS, p("193.0.0.0/18"), 64500
        ) is ValidationState.VALID
        assert validate_origin(
            self.ROAS, p("193.0.0.0/24"), 64501
        ) is ValidationState.VALID

    def test_invalid(self):
        assert validate_origin(
            self.ROAS, p("193.0.0.0/18"), 64999
        ) is ValidationState.INVALID
        # Covered but longer than maxLength, and /24 ROA belongs to
        # someone else: invalid.
        assert validate_origin(
            self.ROAS, p("193.0.128.0/24"), 64500
        ) is ValidationState.INVALID

    def test_not_found(self):
        assert validate_origin(
            self.ROAS, p("8.8.8.0/24"), 64500
        ) is ValidationState.NOT_FOUND


class TestDatabase:
    @pytest.fixture
    def database(self):
        db = RoaDatabase()
        db.add_snapshot(D(2020, 1, 1), [
            Roa(p("193.0.0.0/16"), 100),
            Roa(p("193.0.5.0/24"), 200),      # delegation 100 -> 200
            Roa(p("193.0.6.0/24"), 100),      # same AS: not a delegation
            Roa(p("8.0.0.0/8"), 300),
        ])
        db.add_snapshot(D(2020, 1, 2), [
            Roa(p("193.0.0.0/16"), 100),
        ])
        return db

    def test_snapshot_access(self, database):
        assert len(database) == 2
        assert database.dates() == [D(2020, 1, 1), D(2020, 1, 2)]
        with pytest.raises(RpkiError):
            database.snapshot(D(2019, 1, 1))
        with pytest.raises(RpkiError):
            database.add_snapshot(D(2020, 1, 1), [])

    def test_delegations_on(self, database):
        delegations = database.delegations_on(D(2020, 1, 1))
        assert delegations == [
            RpkiDelegation(p("193.0.5.0/24"), 100, 200)
        ]

    def test_most_specific_cover_wins(self):
        db = RoaDatabase()
        db.add_snapshot(D(2020, 1, 1), [
            Roa(p("193.0.0.0/8"), 1),
            Roa(p("193.0.0.0/16"), 2),
            Roa(p("193.0.5.0/24"), 3),
        ])
        delegations = db.delegations_on(D(2020, 1, 1))
        keys = {d.key() for d in delegations}
        # /24's delegator is the /16 (AS2), not the /8.
        assert (p("193.0.5.0/24"), 2, 3) in keys
        assert (p("193.0.5.0/24"), 1, 3) not in keys
        # The /16 itself is delegated from the /8.
        assert (p("193.0.0.0/16"), 1, 2) in keys

    def test_delegation_timeline(self, database):
        timeline = database.delegation_timeline()
        key = (p("193.0.5.0/24"), 100, 200)
        assert timeline[key] == [D(2020, 1, 1)]

    def test_file_round_trip(self, database, tmp_path):
        database.write_snapshots(tmp_path)
        loaded = RoaDatabase.read_snapshots(tmp_path)
        assert loaded.dates() == database.dates()
        for date in database.dates():
            assert loaded.snapshot(date) == database.snapshot(date)

    def test_read_bad_filename(self, tmp_path):
        (tmp_path / "not-a-date.csv").write_text("ASN,IP Prefix,Max Length\n")
        with pytest.raises(RpkiError):
            RoaDatabase.read_snapshots(tmp_path)
