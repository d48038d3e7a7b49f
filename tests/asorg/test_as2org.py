"""Unit tests for the AS-to-organization dataset."""

import datetime

import pytest

from repro.asorg.as2org import As2OrgDataset, As2OrgSnapshot, Organization
from repro.errors import DatasetError

D = datetime.date


def build_snapshot(date):
    snapshot = As2OrgSnapshot(date)
    snapshot.add_organization(Organization("ORG-A", "Alpha Net", "DE"))
    snapshot.add_organization(Organization("ORG-B", "Beta Net", "US"))
    snapshot.assign(100, "ORG-A")
    snapshot.assign(101, "ORG-A")
    snapshot.assign(200, "ORG-B")
    return snapshot


class TestSnapshot:
    def test_same_org(self):
        snapshot = build_snapshot(D(2020, 1, 1))
        assert snapshot.same_org(100, 101)
        assert not snapshot.same_org(100, 200)

    def test_unmapped_never_same(self):
        snapshot = build_snapshot(D(2020, 1, 1))
        assert not snapshot.same_org(100, 999)
        assert not snapshot.same_org(999, 998)
        assert not snapshot.same_org(999, 999)

    def test_duplicate_org_rejected(self):
        snapshot = build_snapshot(D(2020, 1, 1))
        with pytest.raises(DatasetError):
            snapshot.add_organization(Organization("ORG-A", "dup"))

    def test_assign_validation(self):
        snapshot = build_snapshot(D(2020, 1, 1))
        with pytest.raises(DatasetError):
            snapshot.assign(300, "ORG-NONE")
        with pytest.raises(DatasetError):
            snapshot.assign(100, "ORG-B")

    def test_render_parse_round_trip(self):
        snapshot = build_snapshot(D(2020, 1, 1))
        parsed = As2OrgSnapshot.parse(D(2020, 1, 1), snapshot.render())
        assert parsed.mappings() == snapshot.mappings()
        assert parsed.organizations() == snapshot.organizations()

    def test_parse_rejects_orphan_lines(self):
        with pytest.raises(DatasetError):
            As2OrgSnapshot.parse(D(2020, 1, 1), "ORG-A|x|Name|DE|SIM\n")

    def test_empty_org_id(self):
        with pytest.raises(DatasetError):
            Organization("", "nameless")


class TestDataset:
    @pytest.fixture
    def dataset(self):
        ds = As2OrgDataset()
        ds.add_snapshot(build_snapshot(D(2020, 1, 1)))
        later = As2OrgSnapshot(D(2020, 4, 1))
        later.add_organization(Organization("ORG-A", "Alpha Net", "DE"))
        later.add_organization(Organization("ORG-B", "Beta Net", "US"))
        later.assign(100, "ORG-A")
        later.assign(200, "ORG-B")
        later.assign(101, "ORG-B")  # 101 changed hands in Q2
        ds.add_snapshot(later)
        return ds

    def test_next_available_snapshot(self, dataset):
        assert dataset.snapshot_for(D(2019, 12, 1)).date == D(2020, 1, 1)
        assert dataset.snapshot_for(D(2020, 1, 1)).date == D(2020, 1, 1)
        assert dataset.snapshot_for(D(2020, 2, 1)).date == D(2020, 4, 1)
        # Past the last snapshot: fall back to the last one.
        assert dataset.snapshot_for(D(2020, 9, 1)).date == D(2020, 4, 1)

    def test_same_org_uses_next_snapshot(self, dataset):
        # In January's snapshot 100/101 are the same org; a February day
        # joins against April's snapshot where they differ.
        assert dataset.snapshot_for(D(2020, 1, 1)).same_org(100, 101)
        assert not dataset.snapshot_for(D(2020, 2, 1)).same_org(100, 101)

    def test_empty_dataset(self):
        with pytest.raises(DatasetError):
            As2OrgDataset().snapshot_for(D(2020, 1, 1))

    def test_duplicate_snapshot(self, dataset):
        with pytest.raises(DatasetError):
            dataset.add_snapshot(As2OrgSnapshot(D(2020, 1, 1)))

    def test_file_round_trip(self, dataset, tmp_path):
        paths = dataset.write(tmp_path)
        assert len(paths) == 2
        loaded = As2OrgDataset.read(tmp_path)
        assert loaded.dates() == dataset.dates()
        assert loaded.snapshot_for(D(2020, 1, 1)).mappings() == \
            dataset.snapshot_for(D(2020, 1, 1)).mappings()

    def test_read_bad_filename(self, tmp_path):
        (tmp_path / "junk.as-org2info.txt").write_text("#\n")
        with pytest.raises(DatasetError):
            As2OrgDataset.read(tmp_path)
