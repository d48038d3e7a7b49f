"""Transfer records, the transfer ledger, and the RIR JSON feeds.

Every RIR publishes daily transfer statistics as JSON.  This module
models the records and reproduces the feed quirks the paper's analysis
must handle (§3):

- AFRINIC, ARIN, and RIPE NCC **label** merger-and-acquisition (M&A)
  transfers; APNIC and LACNIC publish them indistinguishable from
  market transfers, so M&A removal is only possible for the former.
- Inter-RIR transfers appear in the feeds of *both* endpoint RIRs, so a
  naive concatenation double counts them.
- The "region" of a transferred block is the RIR that maintains it, and
  is updated by inter-RIR transfers (footnote 1 of the paper).
"""

from __future__ import annotations

import datetime
import enum
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DatasetError, TransferError
from repro.ingest.quarantine import ErrorPolicy, QuarantineReport
from repro.netbase.prefix import IPv4Prefix, format_address, parse_address
from repro.registry.rir import RIR, profile_for

#: Feed label for market transfers (matches ARIN/RIPE publications).
_JSON_TYPE_MARKET = "RESOURCE_TRANSFER"
#: Feed label for M&A transfers, only used by the labelling RIRs.
_JSON_TYPE_MNA = "MERGER_ACQUISITION"

_RIR_JSON_NAMES: Dict[RIR, str] = {
    RIR.AFRINIC: "AFRINIC",
    RIR.APNIC: "APNIC",
    RIR.ARIN: "ARIN",
    RIR.LACNIC: "LACNIC",
    RIR.RIPE: "RIPE NCC",
}
_RIR_FROM_JSON = {name: rir for rir, name in _RIR_JSON_NAMES.items()}


class TransferType(enum.Enum):
    """The true nature of a transfer (ground truth, pre-labelling)."""

    MARKET = "market"
    MERGER_ACQUISITION = "merger-acquisition"


@dataclass(frozen=True)
class TransferRecord:
    """One completed IPv4 transfer.

    ``true_type`` is the ground-truth nature of the transfer;
    ``published_type`` (see :meth:`published_type`) is what the source
    RIR's feed discloses, which collapses to MARKET for non-labelling
    RIRs.
    """

    transfer_id: str
    date: datetime.date
    prefixes: Tuple[IPv4Prefix, ...]
    source_org: str
    recipient_org: str
    source_rir: RIR
    recipient_rir: RIR
    true_type: TransferType
    price_per_address: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise TransferError("a transfer must move at least one block")

    @property
    def is_inter_rir(self) -> bool:
        return self.source_rir is not self.recipient_rir

    @property
    def addresses(self) -> int:
        return sum(prefix.num_addresses for prefix in self.prefixes)

    @property
    def largest_block_length(self) -> int:
        """Length of the largest (least-specific) block moved."""
        return min(prefix.length for prefix in self.prefixes)

    def published_type(self) -> Optional[TransferType]:
        """The transfer type as visible in the published feed.

        ``None`` means "unlabelled" — the reader cannot distinguish
        market from M&A (APNIC and LACNIC feeds).
        """
        if profile_for(self.source_rir).labels_mna_transfers:
            return self.true_type
        return None

    # -- JSON serialization ------------------------------------------

    def to_feed_json(self) -> Dict[str, object]:
        """Serialize in the published RIR transfer-statistics schema."""
        labelled = profile_for(self.source_rir).labels_mna_transfers
        if labelled and self.true_type is TransferType.MERGER_ACQUISITION:
            json_type = _JSON_TYPE_MNA
        else:
            json_type = _JSON_TYPE_MARKET
        return {
            "transfer_id": self.transfer_id,
            "transfer_date": self.date.isoformat() + "T00:00:00Z",
            "type": json_type,
            "source_organization": {"name": self.source_org},
            "recipient_organization": {"name": self.recipient_org},
            "source_rir": _RIR_JSON_NAMES[self.source_rir],
            "recipient_rir": _RIR_JSON_NAMES[self.recipient_rir],
            "ip4nets": {
                "transfer_set": [
                    {
                        "start_address": format_address(p.network),
                        "end_address": format_address(p.broadcast),
                    }
                    for p in self.prefixes
                ]
            },
        }

    @classmethod
    def from_feed_json(cls, data: Dict[str, object]) -> "TransferRecord":
        """Parse one feed record.

        The parsed ``true_type`` reflects only what the feed discloses:
        unlabelled feeds yield MARKET for everything, exactly the
        ambiguity the paper works around.
        """
        try:
            date_text = str(data["transfer_date"])[:10]
            date = datetime.date.fromisoformat(date_text)
            source_rir = _RIR_FROM_JSON[str(data["source_rir"])]
            recipient_rir = _RIR_FROM_JSON[str(data["recipient_rir"])]
            nets = data["ip4nets"]["transfer_set"]  # type: ignore[index]
            prefixes: List[IPv4Prefix] = []
            for net in nets:  # type: ignore[union-attr]
                start = parse_address(str(net["start_address"]))
                end = parse_address(str(net["end_address"]))
                prefixes.extend(IPv4Prefix.from_range(start, end))
            json_type = str(data.get("type", _JSON_TYPE_MARKET))
            true_type = (
                TransferType.MERGER_ACQUISITION
                if json_type == _JSON_TYPE_MNA
                else TransferType.MARKET
            )
            return cls(
                transfer_id=str(data.get("transfer_id", "")),
                date=date,
                prefixes=tuple(prefixes),
                source_org=str(data["source_organization"]["name"]),  # type: ignore[index]
                recipient_org=str(data["recipient_organization"]["name"]),  # type: ignore[index]
                source_rir=source_rir,
                recipient_rir=recipient_rir,
                true_type=true_type,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"malformed transfer record: {exc}") from exc


class TransferLedger:
    """Append-only record of all transfers, with feed export.

    The ledger stores ground truth; :meth:`feed_for` renders the
    *published* view of a single RIR (type labels collapsed for
    non-labelling RIRs, inter-RIR transfers present at both endpoints).
    """

    def __init__(self) -> None:
        #: Sorted in place by the first read after an append; the sort
        #: is stable, so equal keys keep their append order.
        self._records: List[TransferRecord] = []
        self._sorted = True
        self._next_id = 1

    # -- recording ------------------------------------------------------

    def record(
        self,
        date: datetime.date,
        prefixes: Iterable[IPv4Prefix],
        source_org: str,
        recipient_org: str,
        source_rir: RIR,
        recipient_rir: RIR,
        true_type: TransferType = TransferType.MARKET,
        price_per_address: Optional[float] = None,
    ) -> TransferRecord:
        """Append a transfer and return the stored record."""
        record = TransferRecord(
            transfer_id=f"T{self._next_id:07d}",
            date=date,
            prefixes=tuple(prefixes),
            source_org=source_org,
            recipient_org=recipient_org,
            source_rir=source_rir,
            recipient_rir=recipient_rir,
            true_type=true_type,
            price_per_address=price_per_address,
        )
        self._next_id += 1
        self._records.append(record)
        self._sorted = False
        return record

    def extend(self, records: Iterable[TransferRecord]) -> None:
        """Bulk-append pre-built records (e.g. parsed from feeds)."""
        for record in records:
            self._records.append(record)
            self._next_id = max(self._next_id, len(self._records) + 1)
        self._sorted = False

    # -- queries ------------------------------------------------------------

    def _chronological(self) -> List[TransferRecord]:
        if not self._sorted:
            self._records.sort(key=lambda r: (r.date, r.transfer_id))
            self._sorted = True
        return self._records

    def records(self) -> List[TransferRecord]:
        """All records in chronological order (a copy: change it freely)."""
        return list(self._chronological())

    def intra_rir(self, rir: RIR) -> List[TransferRecord]:
        """Transfers entirely within ``rir``."""
        return [
            r
            for r in self._chronological()
            if r.source_rir is rir and r.recipient_rir is rir
        ]

    def inter_rir(self) -> List[TransferRecord]:
        """All transfers that moved space between RIRs."""
        return [r for r in self._chronological() if r.is_inter_rir]

    def between(
        self, start: datetime.date, end: datetime.date
    ) -> List[TransferRecord]:
        """Records with ``start <= date < end``."""
        return [r for r in self._chronological() if start <= r.date < end]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TransferRecord]:
        return iter(self.records())

    # -- feed export ------------------------------------------------------

    def feed_for(self, rir: RIR) -> Dict[str, object]:
        """Render the published JSON feed of one RIR.

        A record appears in an RIR's feed if the RIR is either endpoint
        (which is why naive cross-RIR concatenation double counts
        inter-RIR transfers).
        """
        involved = [
            r
            for r in self._chronological()
            if r.source_rir is rir or r.recipient_rir is rir
        ]
        return {
            "version": "1.0",
            "rir": _RIR_JSON_NAMES[rir],
            "transfers": [r.to_feed_json() for r in involved],
        }

    def write_feeds(self, directory) -> Dict[RIR, str]:
        """Write one ``transfers_latest.json`` per RIR under
        ``directory``; returns the file paths."""
        import pathlib

        base = pathlib.Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        paths: Dict[RIR, str] = {}
        for rir in RIR:
            path = base / f"{rir.value}_transfers_latest.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.feed_for(rir), handle, indent=1)
            paths[rir] = str(path)
        return paths

    @classmethod
    def from_feeds(
        cls,
        feeds: Iterable[Dict[str, object]],
        *,
        policy: ErrorPolicy = ErrorPolicy.STRICT,
        report: Optional[QuarantineReport] = None,
        sources: Optional[List[str]] = None,
    ) -> "TransferLedger":
        """Rebuild a ledger from published feeds, de-duplicating the
        inter-RIR records that appear at both endpoints.

        With ``policy=STRICT`` (the default) the first malformed record
        raises :class:`~repro.errors.DatasetError`; with ``QUARANTINE``
        malformed records land in ``report`` (source, record index,
        reason) and parsing continues.  ``sources`` optionally labels
        each feed (e.g. its file path) for the report; otherwise the
        feed's ``rir`` field is used.

        The de-duplication key includes the published transfer type, so
        a labelled M&A transfer and a market transfer with otherwise
        identical endpoints, date, and prefixes stay distinct records;
        an inter-RIR transfer still collapses to one record because
        both endpoint feeds publish the same type label.
        """
        kept: List[TransferRecord] = []
        seen: set = set()
        for feed_index, feed in enumerate(feeds):
            source = (
                sources[feed_index]
                if sources is not None and feed_index < len(sources)
                else str(feed.get("rir", f"feed[{feed_index}]"))
            )
            transfers = feed.get("transfers", [])
            if not isinstance(transfers, list):
                if policy is ErrorPolicy.STRICT:
                    raise DatasetError(
                        f"{source}: feed 'transfers' must be a list"
                    )
                if report is not None:
                    report.add(
                        source, -1, "feed 'transfers' must be a list",
                        kind="transfers",
                    )
                continue
            for index, raw in enumerate(transfers):
                try:
                    record = TransferRecord.from_feed_json(raw)
                except DatasetError as exc:
                    if policy is ErrorPolicy.STRICT:
                        raise DatasetError(
                            f"{source} record {index}: {exc}"
                        ) from exc
                    if report is not None:
                        report.add(
                            source, index, str(exc), kind="transfers"
                        )
                    continue
                key = (
                    record.date,
                    record.prefixes,
                    record.source_org,
                    record.recipient_org,
                    record.source_rir,
                    record.recipient_rir,
                    record.true_type,
                )
                if key in seen:
                    continue
                seen.add(key)
                kept.append(record)
        ledger = cls()
        ledger.extend(kept)
        return ledger
