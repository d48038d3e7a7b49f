"""The anonymized transaction dataset (the paper's 2.9k records).

The brokers' data is anonymized exactly the way §3 describes: no
prefix, no organizations — just the date, the number of IPs (hence the
block size), the *region* (maintaining RIR), and the price per IP.
Because blocks less-specific than /16 would be identifiable, the
dataset only admits /16-or-longer blocks.
"""

from __future__ import annotations

import csv
import datetime
import io
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import DatasetError, MarketError
from repro.registry.rir import RIR


@dataclass(frozen=True)
class Transaction:
    """One anonymized brokered sale."""

    date: datetime.date
    region: RIR
    block_length: int
    price_per_address: float
    broker: str = ""

    def __post_init__(self) -> None:
        if not 16 <= self.block_length <= 24:
            raise MarketError(
                "anonymized dataset only contains /16../24 blocks "
                f"(got /{self.block_length})"
            )
        if self.price_per_address <= 0:
            raise MarketError("price must be positive")

    @property
    def addresses(self) -> int:
        return 1 << (32 - self.block_length)

    def quarter(self) -> Tuple[int, int]:
        """(year, quarter) of the transaction date."""
        return (self.date.year, (self.date.month - 1) // 3 + 1)


def _order_key(transaction: Transaction) -> Tuple[datetime.date, str]:
    return (transaction.date, transaction.region.value)


class TransactionDataset:
    """A queryable collection of anonymized transactions, kept in
    ``(date, region)`` order; ties keep insertion order."""

    def __init__(self, transactions: Iterable[Transaction] = ()):
        self._transactions: List[Transaction] = sorted(
            transactions, key=_order_key
        )

    def add(self, transaction: Transaction) -> None:
        """Insert after every transaction that sorts at or before it.

        A hand-written ``bisect_right``: ``bisect``'s ``key=`` needs
        Python 3.10.
        """
        key = _order_key(transaction)
        items = self._transactions
        low, high = 0, len(items)
        while low < high:
            middle = (low + high) // 2
            if key < _order_key(items[middle]):
                high = middle
            else:
                low = middle + 1
        items.insert(low, transaction)

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    # -- filters -----------------------------------------------------------

    def in_window(
        self, start: datetime.date, end: datetime.date
    ) -> "TransactionDataset":
        """Transactions with ``start <= date < end``."""
        return TransactionDataset(
            t for t in self._transactions if start <= t.date < end
        )

    def for_regions(self, regions: Iterable[RIR]) -> "TransactionDataset":
        regions = set(regions)
        return TransactionDataset(
            t for t in self._transactions if t.region in regions
        )

    def for_lengths(self, lengths: Iterable[int]) -> "TransactionDataset":
        lengths = set(lengths)
        return TransactionDataset(
            t for t in self._transactions if t.block_length in lengths
        )

    def prices(self) -> List[float]:
        return [t.price_per_address for t in self._transactions]

    def by_quarter(self) -> Dict[Tuple[int, int], "TransactionDataset"]:
        """Group into (year, quarter) buckets, ordered."""
        buckets: Dict[Tuple[int, int], List[Transaction]] = {}
        for transaction in self._transactions:
            buckets.setdefault(transaction.quarter(), []).append(transaction)
        return {
            quarter: TransactionDataset(buckets[quarter])
            for quarter in sorted(buckets)
        }

    def by_region(self) -> Dict[RIR, "TransactionDataset"]:
        buckets: Dict[RIR, List[Transaction]] = {}
        for transaction in self._transactions:
            buckets.setdefault(transaction.region, []).append(transaction)
        return {
            region: TransactionDataset(buckets[region])
            for region in sorted(buckets, key=lambda r: r.value)
        }

    def count_by_region(self) -> Dict[RIR, int]:
        counts: Dict[RIR, int] = {}
        for transaction in self._transactions:
            counts[transaction.region] = counts.get(transaction.region, 0) + 1
        return counts

    # -- CSV I/O --------------------------------------------------------------

    _FIELDS = ["date", "region", "block_length", "price_per_address", "broker"]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self._FIELDS)
        writer.writeheader()
        for t in self._transactions:
            writer.writerow(
                {
                    "date": t.date.isoformat(),
                    "region": t.region.value,
                    "block_length": t.block_length,
                    "price_per_address": f"{t.price_per_address:.2f}",
                    "broker": t.broker,
                }
            )
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "TransactionDataset":
        reader = csv.DictReader(io.StringIO(text))
        transactions: List[Transaction] = []
        for row in reader:
            try:
                transactions.append(
                    Transaction(
                        date=datetime.date.fromisoformat(row["date"]),
                        region=RIR(row["region"]),
                        block_length=int(row["block_length"]),
                        price_per_address=float(row["price_per_address"]),
                        broker=row.get("broker", ""),
                    )
                )
            except (KeyError, ValueError, MarketError) as exc:
                raise DatasetError(f"bad transaction row {row!r}: {exc}") from exc
        return cls(transactions)

    def write_csv(self, path: Union[str, pathlib.Path]) -> str:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv(), encoding="utf-8")
        return str(path)

    @classmethod
    def read_csv(cls, path: Union[str, pathlib.Path]) -> "TransactionDataset":
        return cls.from_csv(pathlib.Path(path).read_text(encoding="utf-8"))
