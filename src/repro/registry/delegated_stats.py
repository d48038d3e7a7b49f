"""The NRO "delegated-extended" statistics file format.

Every RIR publishes a daily ``delegated-<rir>-extended-latest`` file —
the canonical public record of who holds which resources, and the
dataset behind every exhaustion tracker (including the "IPv4 Run Out"
pages the paper cites).  Lines are pipe-separated::

    ripencc|EU|ipv4|193.0.0.0|65536|19930901|allocated|<opaque-id>

with a version header and per-type summary lines.  This module renders
a registry's state in that format and parses it back, including the
quirk that IPv4 lines carry an address *count* (not a prefix length)
because early allocations were not CIDR aligned.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DatasetError
from repro.netbase.prefix import IPv4Prefix, format_address, parse_address
from repro.registry.rir import RIR


class DelegationStatus(enum.Enum):
    """Status column values for delegated-stats records."""

    ALLOCATED = "allocated"
    ASSIGNED = "assigned"
    AVAILABLE = "available"
    RESERVED = "reserved"

    @classmethod
    def parse(cls, text: str) -> "DelegationStatus":
        for status in cls:
            if status.value == text.strip().lower():
                return status
        raise DatasetError(f"unknown delegation status: {text!r}")


@dataclass(frozen=True)
class DelegatedRecord:
    """One IPv4 line of a delegated-extended file."""

    rir: RIR
    country: str
    start: int
    count: int
    date: Optional[datetime.date]
    status: DelegationStatus
    opaque_id: str = ""

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise DatasetError("record must cover at least one address")
        if not 0 <= self.start <= 0xFFFFFFFF:
            raise DatasetError("start address out of range")

    @property
    def last(self) -> int:
        return self.start + self.count - 1

    def prefixes(self) -> List[IPv4Prefix]:
        """The record as CIDR blocks (counts are not always powers of
        two)."""
        return IPv4Prefix.from_range(self.start, self.last)

    def to_line(self) -> str:
        date_text = (
            self.date.strftime("%Y%m%d") if self.date is not None else ""
        )
        return "|".join([
            self.rir.value,
            self.country,
            "ipv4",
            format_address(self.start),
            str(self.count),
            date_text,
            self.status.value,
            self.opaque_id,
        ])

    @classmethod
    def from_line(cls, line: str) -> "DelegatedRecord":
        fields = line.strip().split("|")
        if len(fields) < 7:
            raise DatasetError(f"short delegated-stats line: {line!r}")
        if fields[2] != "ipv4":
            raise DatasetError(f"not an ipv4 line: {line!r}")
        try:
            rir = RIR(fields[0])
            start = parse_address(fields[3])
            count = int(fields[4])
            date = None
            if fields[5]:
                date = datetime.datetime.strptime(
                    fields[5], "%Y%m%d"
                ).date()
            status = DelegationStatus.parse(fields[6])
        except (ValueError, DatasetError) as exc:
            if isinstance(exc, DatasetError):
                raise
            raise DatasetError(f"bad delegated-stats line: {line!r}") from exc
        return cls(
            rir=rir,
            country=fields[1],
            start=start,
            count=count,
            date=date,
            status=status,
            opaque_id=fields[7] if len(fields) > 7 else "",
        )


def render_file(
    rir: RIR,
    records: Iterable[DelegatedRecord],
    *,
    file_date: datetime.date,
) -> str:
    """Render a full delegated-extended file: header, summary, lines."""
    records = sorted(records, key=lambda r: r.start)
    lines = [
        # version|registry|serial|records|startdate|enddate|UTCoffset
        f"2|{rir.value}|{file_date.strftime('%Y%m%d')}|{len(records)}"
        f"|19830101|{file_date.strftime('%Y%m%d')}|+0000",
        f"{rir.value}|*|ipv4|*|{len(records)}|summary",
    ]
    lines.extend(record.to_line() for record in records)
    return "\n".join(lines) + "\n"


def parse_file(text: str) -> List[DelegatedRecord]:
    """Parse a delegated-extended file (header/summary/comments
    skipped)."""
    records: List[DelegatedRecord] = []
    declared: Optional[int] = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if fields[0] == "2":  # version header
            continue
        if len(fields) >= 6 and fields[5] == "summary":
            if fields[2] == "ipv4":
                declared = int(fields[4])
            continue
        records.append(DelegatedRecord.from_line(line))
    if declared is not None and declared != len(records):
        raise DatasetError(
            f"summary declares {declared} ipv4 records, found "
            f"{len(records)}"
        )
    return records


def available_addresses(records: Iterable[DelegatedRecord]) -> int:
    """Free-pool size: the sum of AVAILABLE record counts.

    This is how exhaustion trackers measure an RIR's remaining pool
    (e.g. RIPE's "around 340k addresses" in §2).
    """
    return sum(
        record.count
        for record in records
        if record.status is DelegationStatus.AVAILABLE
    )


def records_from_registry(
    registry,
    *,
    country: str = "ZZ",
    date: Optional[datetime.date] = None,
) -> Iterator[DelegatedRecord]:
    """Render a live :class:`~repro.registry.registry.RIRRegistry`'s
    state as delegated-stats records: holdings as ALLOCATED, the free
    pool as AVAILABLE, quarantined space as RESERVED."""
    for block, _org in sorted(registry.holdings().items()):
        yield DelegatedRecord(
            rir=registry.rir,
            country=country,
            start=block.network,
            count=block.num_addresses,
            date=date,
            status=DelegationStatus.ALLOCATED,
        )
    for block in registry.pool.blocks():
        yield DelegatedRecord(
            rir=registry.rir,
            country=country,
            start=block.network,
            count=block.num_addresses,
            date=date,
            status=DelegationStatus.AVAILABLE,
        )
    for entry in registry.quarantine.pending():
        yield DelegatedRecord(
            rir=registry.rir,
            country=country,
            start=entry.block.network,
            count=entry.block.num_addresses,
            date=date,
            status=DelegationStatus.RESERVED,
        )
