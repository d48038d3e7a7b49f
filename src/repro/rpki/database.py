"""Per-day ROA snapshots and RPKI-visible delegations."""

from __future__ import annotations

import datetime
import pathlib
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Union

from repro.errors import RpkiError
from repro.netbase.lpm import nearest_strict_covers, pack
from repro.netbase.prefix import IPv4Prefix
from repro.rpki.roa import Roa


@dataclass(frozen=True)
class RpkiDelegation:
    """An RPKI-visible delegation: ``delegator`` holds a ROA for a
    covering prefix, ``delegatee`` one for the more-specific."""

    prefix: IPv4Prefix
    delegator_asn: int
    delegatee_asn: int

    def key(self) -> tuple:
        return (self.prefix, self.delegator_asn, self.delegatee_asn)


class RoaDatabase:
    """ROA snapshots keyed by date, with delegation extraction."""

    def __init__(self) -> None:
        self._snapshots: Dict[datetime.date, FrozenSet[Roa]] = {}

    # -- snapshots ------------------------------------------------------

    def add_snapshot(
        self, date: datetime.date, roas: Iterable[Roa]
    ) -> None:
        if date in self._snapshots:
            raise RpkiError(f"duplicate snapshot for {date}")
        self._snapshots[date] = frozenset(roas)

    def snapshot(self, date: datetime.date) -> FrozenSet[Roa]:
        try:
            return self._snapshots[date]
        except KeyError:
            raise RpkiError(f"no snapshot for {date}") from None

    def has_snapshot(self, date: datetime.date) -> bool:
        return date in self._snapshots

    def dates(self) -> List[datetime.date]:
        return sorted(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    # -- delegation extraction ----------------------------------------------

    def delegations_on(self, date: datetime.date) -> List[RpkiDelegation]:
        """RPKI-visible delegations in the ``date`` snapshot.

        For every ROA (P', T), the delegator is the AS of the ROA for
        the most-specific strictly-covering prefix P with a different
        AS.  Same-AS pairs are ROA maxLength engineering, not
        delegations.
        """
        asns_by_key: Dict[int, List[int]] = {}
        prefix_by_key: Dict[int, IPv4Prefix] = {}
        for roa in self.snapshot(date):
            key = pack(roa.prefix.network, roa.prefix.length)
            bucket = asns_by_key.get(key)
            if bucket is None:
                bucket = asns_by_key[key] = []
                prefix_by_key[key] = roa.prefix
            bucket.append(roa.asn)
        keys = array("Q", sorted(asns_by_key))
        found = set()
        # The most-specific strict cover wins, even when all its ASNs
        # equal the delegatee's (no fallback to a shorter cover).
        for key, cover in zip(keys, nearest_strict_covers(keys)):
            if cover < 0:
                continue
            delegators = asns_by_key[keys[cover]]
            for delegatee in asns_by_key[key]:
                for delegator in delegators:
                    if delegator != delegatee:
                        found.add((key, delegator, delegatee))
        # Packed-key order is IPv4Prefix order, so this is key() order.
        return [
            RpkiDelegation(
                prefix=prefix_by_key[key],
                delegator_asn=delegator,
                delegatee_asn=delegatee,
            )
            for key, delegator, delegatee in sorted(found)
        ]

    def delegation_timeline(
        self,
    ) -> Dict[tuple, List[datetime.date]]:
        """Map each delegation key to the snapshot dates it appears on.

        This is the input of the appendix's consistency-rule fail-rate
        evaluation (Fig. 5).  ROA sets repeat from day to day, so the
        extraction runs once per distinct snapshot (a ``frozenset``,
        whose hash is cached) and every repeat is a lookup.
        """
        extracted: Dict[FrozenSet[Roa], List[tuple]] = {}
        timeline: Dict[tuple, List[datetime.date]] = {}
        for date in self.dates():
            roas = self._snapshots[date]
            keys = extracted.get(roas)
            if keys is None:
                keys = extracted[roas] = [
                    delegation.key()
                    for delegation in self.delegations_on(date)
                ]
            for key in keys:
                timeline.setdefault(key, []).append(date)
        return timeline

    # -- file I/O -------------------------------------------------------------

    def write_snapshots(
        self, directory: Union[str, pathlib.Path]
    ) -> List[str]:
        """One ``<date>.csv`` per snapshot; returns paths written."""
        base = pathlib.Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        paths: List[str] = []
        for date in self.dates():
            path = base / f"{date.isoformat()}.csv"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("ASN,IP Prefix,Max Length\n")
                rows = sorted(
                    roa.to_csv_row() for roa in self._snapshots[date]
                )
                handle.write("\n".join(rows) + "\n")
            paths.append(str(path))
        return paths

    @classmethod
    def read_snapshots(
        cls, directory: Union[str, pathlib.Path]
    ) -> "RoaDatabase":
        """Load every ``<date>.csv`` under ``directory``."""
        base = pathlib.Path(directory)
        database = cls()
        for path in sorted(base.glob("*.csv")):
            try:
                date = datetime.date.fromisoformat(path.stem)
            except ValueError as exc:
                raise RpkiError(
                    f"snapshot filename is not a date: {path.name}"
                ) from exc
            roas: List[Roa] = []
            with open(path, encoding="utf-8") as handle:
                for i, line in enumerate(handle):
                    line = line.strip()
                    if not line or (i == 0 and line.startswith("ASN")):
                        continue
                    roas.append(Roa.from_csv_row(line))
            database.add_snapshot(date, roas)
        return database
