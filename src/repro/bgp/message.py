"""Route records as collectors export them.

Three record shapes flow through the system:

- :class:`Announcement` — *origin-side intent*: an AS announces a
  prefix on a given day, optionally with restricted propagation (used
  by the world simulator to model localized hijacks/misconfigurations).
  A whole day of them travels as an :class:`AnnouncementDay`: packed
  columns that iterate as ``Announcement`` objects only on demand.
- :class:`RouteRecord` — *collector-side observation*: one (monitor,
  prefix, AS path) element, the unit a BGPStream-like reader yields.
- :class:`Withdrawal` — a monitor losing a route (update streams).
"""

from __future__ import annotations

import datetime
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.errors import BgpError
from repro.netbase.aspath import ASPath
from repro.netbase.lpm import unpack
from repro.netbase.prefix import IPv4Prefix


@dataclass(frozen=True)
class Announcement:
    """An origination: ``origin_asn`` announces ``prefix``.

    ``restricted_to_monitors`` — when not None, propagation is forced
    to reach only that monitor subset regardless of topology (models
    localized events such as more-specific hijacks that stay regional
    or leaks via a single peer).
    """

    prefix: IPv4Prefix
    origin_asn: int
    restricted_to_monitors: Optional[FrozenSet[int]] = None
    as_set_origin: bool = False

    def __post_init__(self) -> None:
        if self.origin_asn < 0:
            raise BgpError("invalid origin AS")


#: One announcement outside a day's shared columns: ``(packed key,
#: origin AS, restricted_to_monitors, as_set_origin)``.
ExtraRoute = Tuple[int, int, Optional[FrozenSet[int]], bool]


class AnnouncementColumns:
    """Plain announcements (no restriction, no AS_SET) as packed
    columns sorted by prefix.

    Columns, one row per announcement, in ascending packed-key order
    (:func:`repro.netbase.lpm.pack`; rows with equal keys keep their
    sequence order):

    - ``keys`` — ``array('Q')`` of packed prefixes,
    - ``origins`` — ``array('Q')`` of origin ASes,
    - ``order`` — ``array('I')``, each row's position in the sequence.
    """

    __slots__ = ("keys", "origins", "order")

    def __init__(self, keys: "array", origins: "array", order: "array"):
        self.keys = keys
        self.origins = origins
        self.order = order

    @classmethod
    def from_sequence(
        cls, keys: Sequence[int], origins: Sequence[int]
    ) -> "AnnouncementColumns":
        """Sort sequence-ordered columns by key (stable)."""
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return cls(
            array("Q", map(keys.__getitem__, order)),
            array("Q", map(origins.__getitem__, order)),
            array("I", order),
        )

    def __len__(self) -> int:
        return len(self.keys)


def _announcement(
    key: int,
    origin: int,
    restricted: Optional[FrozenSet[int]] = None,
    as_set: bool = False,
) -> Announcement:
    network, length = unpack(key)
    return Announcement(IPv4Prefix(network, length), origin, restricted, as_set)


class AnnouncementDay:
    """One day's announcements without per-route objects.

    ``selected`` holds one truth value per row of the shared ``rows``
    (an :class:`AnnouncementColumns`): the rows announced this day.
    ``extras`` are the day's other announcements as
    :data:`ExtraRoute` tuples.  The day iterates, and has the
    ``len()`` of, the ``Announcement`` sequence it stands for: the
    selected rows in sequence order, then the extras in order.
    Archives and record-level consumers iterate; the collector
    aggregation reads the columns directly.
    """

    __slots__ = ("rows", "selected", "extras")

    def __init__(
        self,
        rows: AnnouncementColumns,
        selected: Sequence[int],
        extras: Sequence[ExtraRoute],
    ) -> None:
        self.rows = rows
        self.selected = selected
        self.extras = extras

    def __len__(self) -> int:
        return sum(self.selected) + len(self.extras)

    def __iter__(self) -> Iterator[Announcement]:
        rows = self.rows
        picked = compress(range(len(rows)), self.selected)
        for row in sorted(picked, key=rows.order.__getitem__):
            yield _announcement(rows.keys[row], rows.origins[row])
        for extra in self.extras:
            yield _announcement(*extra)


@dataclass(frozen=True)
class RouteRecord:
    """One routing-table element observed at a collector.

    ``as_path`` is monitor-first/origin-last; ``origin`` convenience
    accessors delegate to the path.
    """

    collector: str
    monitor_asn: int
    prefix: IPv4Prefix
    as_path: ASPath
    date: datetime.date

    def origin_asn(self) -> int:
        """The (unique) origin AS; raises for AS_SET origins."""
        return self.as_path.origin().sole_origin()

    def to_json(self) -> Dict[str, object]:
        """Serialize for archive files (one JSON object per line)."""
        return {
            "collector": self.collector,
            "monitor": self.monitor_asn,
            "prefix": str(self.prefix),
            "as_path": str(self.as_path),
            "date": self.date.isoformat(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "RouteRecord":
        return cls(
            collector=str(data["collector"]),
            monitor_asn=int(data["monitor"]),  # type: ignore[arg-type]
            prefix=IPv4Prefix.parse(str(data["prefix"])),
            as_path=ASPath.parse(str(data["as_path"])),
            date=datetime.date.fromisoformat(str(data["date"])),
        )


@dataclass(frozen=True)
class Withdrawal:
    """A monitor losing its route for a prefix."""

    collector: str
    monitor_asn: int
    prefix: IPv4Prefix
    date: datetime.date
