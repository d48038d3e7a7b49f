"""The AS-to-organization dataset (CAIDA as2org format).

CAIDA publishes quarterly snapshots with two pipe-separated sections::

    # format:org_id|changed|org_name|country|source
    ORG-1|20200101|Example Org|DE|SIM
    # format:aut|changed|aut_name|org_id|opaque_id|source
    64500|20200101|EXAMPLE-AS|ORG-1||SIM

:class:`As2OrgDataset` holds many dated snapshots and implements the
join rule the paper uses: a day's data is matched against the *next
available* snapshot (the first snapshot dated on or after that day;
days after the last snapshot fall back to the last one).
"""

from __future__ import annotations

import datetime
import hashlib
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Union

from repro.errors import DatasetError


@dataclass(frozen=True)
class Organization:
    """One organization in the mapping."""

    org_id: str
    name: str
    country: str = "ZZ"

    def __post_init__(self) -> None:
        if not self.org_id:
            raise DatasetError("organization id cannot be empty")


class As2OrgSnapshot:
    """One dated snapshot: AS number → organization."""

    def __init__(
        self,
        date: datetime.date,
        organizations: Iterable[Organization] = (),
    ):
        self._date = date
        self._orgs: Dict[str, Organization] = {}
        self._as_to_org: Dict[int, str] = {}
        for org in organizations:
            self.add_organization(org)

    @property
    def date(self) -> datetime.date:
        return self._date

    def add_organization(self, org: Organization) -> None:
        if org.org_id in self._orgs:
            raise DatasetError(f"duplicate organization {org.org_id}")
        self._orgs[org.org_id] = org

    def assign(self, asn: int, org_id: str) -> None:
        """Map ``asn`` to ``org_id`` (org must exist; remap rejected)."""
        if org_id not in self._orgs:
            raise DatasetError(f"unknown organization {org_id}")
        if asn in self._as_to_org:
            raise DatasetError(f"AS{asn} already mapped")
        self._as_to_org[asn] = org_id

    def same_org(self, asn_a: int, asn_b: int) -> bool:
        """True if both ASes map to the same organization.

        Unmapped ASes are never "the same organization" — the filter
        must not delete delegations out of ignorance.
        """
        org_a = self._as_to_org.get(asn_a)
        if org_a is None:
            return False
        return org_a == self._as_to_org.get(asn_b)

    def organizations(self) -> List[Organization]:
        return sorted(self._orgs.values(), key=lambda o: o.org_id)

    def mappings(self) -> Dict[int, str]:
        return dict(self._as_to_org)

    def __len__(self) -> int:
        return len(self._as_to_org)

    # -- CAIDA file format -------------------------------------------------

    def render(self) -> str:
        lines = ["# format:org_id|changed|org_name|country|source"]
        changed = self._date.strftime("%Y%m%d")
        for org in self.organizations():
            lines.append(
                f"{org.org_id}|{changed}|{org.name}|{org.country}|SIM"
            )
        lines.append("# format:aut|changed|aut_name|org_id|opaque_id|source")
        for asn in sorted(self._as_to_org):
            org_id = self._as_to_org[asn]
            lines.append(f"{asn}|{changed}|AS{asn}|{org_id}||SIM")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, date: datetime.date, text: str) -> "As2OrgSnapshot":
        snapshot = cls(date)
        section = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "org_id|" in line and line.index("org_id|") < 12:
                    section = "org"
                elif "aut|" in line:
                    section = "aut"
                continue
            fields = line.split("|")
            if section == "org":
                if len(fields) < 5:
                    raise DatasetError(f"bad org line: {line!r}")
                snapshot.add_organization(
                    Organization(
                        org_id=fields[0], name=fields[2], country=fields[3]
                    )
                )
            elif section == "aut":
                if len(fields) < 6:
                    raise DatasetError(f"bad aut line: {line!r}")
                try:
                    asn = int(fields[0])
                except ValueError as exc:
                    raise DatasetError(f"bad AS number: {fields[0]!r}") from exc
                snapshot.assign(asn, fields[3])
            else:
                raise DatasetError(f"line outside any section: {line!r}")
        return snapshot


class As2OrgDataset:
    """Many dated snapshots with next-available-snapshot lookup."""

    def __init__(self) -> None:
        self._snapshots: Dict[datetime.date, As2OrgSnapshot] = {}

    def add_snapshot(self, snapshot: As2OrgSnapshot) -> None:
        if snapshot.date in self._snapshots:
            raise DatasetError(f"duplicate snapshot for {snapshot.date}")
        self._snapshots[snapshot.date] = snapshot

    def dates(self) -> List[datetime.date]:
        return sorted(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def snapshot_for(self, date: datetime.date) -> As2OrgSnapshot:
        """The *next available* snapshot for ``date`` (paper §4, ext. iv).

        Returns the earliest snapshot dated on/after ``date``; if none
        exists (date past the last snapshot) the latest snapshot is
        used.
        """
        dates = self.dates()
        if not dates:
            raise DatasetError("dataset has no snapshots")
        for snapshot_date in dates:
            if snapshot_date >= date:
                return self._snapshots[snapshot_date]
        return self._snapshots[dates[-1]]

    def fingerprint(self) -> str:
        """Content hash of every snapshot (stable across processes).

        Used by :mod:`repro.delegation.runner` as the cache-key
        component for extension (iv): two datasets with identical
        snapshot dates and AS→org mappings share cached results, and
        any mapping change invalidates them.
        """
        digest = hashlib.sha256()
        for date in self.dates():
            digest.update(date.isoformat().encode("ascii"))
            digest.update(self._snapshots[date].render().encode("utf-8"))
        return digest.hexdigest()

    # -- file I/O ------------------------------------------------------------

    def write(self, directory: Union[str, pathlib.Path]) -> List[str]:
        """Write ``<YYYYMMDD>.as-org2info.txt`` files; returns paths."""
        base = pathlib.Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        paths: List[str] = []
        for date in self.dates():
            name = f"{date.strftime('%Y%m%d')}.as-org2info.txt"
            path = base / name
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self._snapshots[date].render())
            paths.append(str(path))
        return paths

    @classmethod
    def read(cls, directory: Union[str, pathlib.Path]) -> "As2OrgDataset":
        base = pathlib.Path(directory)
        dataset = cls()
        for path in sorted(base.glob("*.as-org2info.txt")):
            stem = path.name.split(".")[0]
            try:
                date = datetime.datetime.strptime(stem, "%Y%m%d").date()
            except ValueError as exc:
                raise DatasetError(
                    f"snapshot filename is not a date: {path.name}"
                ) from exc
            with open(path, encoding="utf-8") as handle:
                dataset.add_snapshot(As2OrgSnapshot.parse(date, handle.read()))
        return dataset
