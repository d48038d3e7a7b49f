"""Route collector projects and their daily archives.

A :class:`Collector` has a set of monitor (peer) ASes; given the
announcements of a day and a :class:`~repro.bgp.propagation.
PropagationModel`, it materializes what each monitor's RIB contains.
:class:`CollectorSystem` groups the projects the paper uses (RIS,
Route Views, Isolario) and can write/read daily JSONL archives in a
``<archive>/<collector>/<date>.jsonl`` layout.
"""

from __future__ import annotations

import datetime
import json
import pathlib
from array import array
from bisect import bisect_left
from itertools import compress
from operator import and_
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.bgp.message import (
    Announcement, AnnouncementColumns, AnnouncementDay, RouteRecord,
)
from repro.bgp.propagation import PropagationModel
from repro.bgp.rib import UNIQUE_ORIGIN, PairTable
from repro.errors import CollectorDataError
from repro.netbase.aspath import ASPath, ASPathSegment, SegmentType


class Collector:
    """One collector project with its monitor ASes."""

    def __init__(self, name: str, monitor_asns: Iterable[int]):
        if not name:
            raise CollectorDataError("collector needs a name")
        self._name = name
        self._monitors = frozenset(monitor_asns)
        if not self._monitors:
            raise CollectorDataError(f"collector {name} has no monitors")

    @property
    def name(self) -> str:
        return self._name

    @property
    def monitors(self) -> FrozenSet[int]:
        return self._monitors

    def records_for_day(
        self,
        announcements: Iterable[Announcement],
        propagation: PropagationModel,
        date: datetime.date,
    ) -> Iterator[RouteRecord]:
        """Yield the day's RIB records for every monitor of this
        collector.

        A monitor holds a route iff valley-free propagation reaches it
        — unless the announcement restricts propagation, in which case
        only the allowed subset sees it (still intersected with
        topological reachability: a restriction cannot create
        visibility that the topology forbids).
        """
        for announcement in announcements:
            origin = announcement.origin_asn
            if origin in propagation.topology:
                # A monitor that originates the route holds it itself.
                reachable = propagation.receivers(origin) | {origin}
            else:
                reachable = frozenset()
            visible = self._monitors & reachable
            if announcement.restricted_to_monitors is not None:
                visible &= announcement.restricted_to_monitors
            for monitor in sorted(visible):
                if monitor == origin:
                    as_path = ASPath.from_asns([origin])
                else:
                    as_path = propagation.path(origin, monitor)
                if as_path is None:  # pragma: no cover - reachability implies path
                    continue
                if announcement.as_set_origin:
                    as_path = _with_as_set_origin(as_path)
                yield RouteRecord(
                    collector=self._name,
                    monitor_asn=monitor,
                    prefix=announcement.prefix,
                    as_path=as_path,
                    date=date,
                )

    def __repr__(self) -> str:
        return f"<Collector {self._name}: {len(self._monitors)} monitors>"


def _bin_popcount(mask: int) -> int:
    """Set bits in ``mask``, for Pythons without ``int.bit_count``."""
    return bin(mask).count("1")


#: Set bits in a non-negative int: ``int.bit_count`` (Python 3.10+),
#: else :func:`_bin_popcount`.
_popcount = getattr(int, "bit_count", _bin_popcount)


def _mask_of(monitors: Iterable[int], bits: Dict[int, int]) -> int:
    """The bitmask of ``monitors``; ones without a bit are dropped."""
    mask = 0
    for monitor in monitors:
        mask |= bits.get(monitor, 0)
    return mask


def _with_as_set_origin(as_path: ASPath) -> ASPath:
    """Rewrite the path's origin into a singleton AS_SET.

    Models proxy aggregation artifacts: the announcement's origin shows
    up as ``{origin}``, which inference step (iii) must discard.
    """
    asns = list(as_path.asns())
    head, origin = asns[:-1], asns[-1]
    segments = []
    if head:
        segments.append(ASPathSegment(SegmentType.SEQUENCE, head))
    segments.append(ASPathSegment(SegmentType.SET, [origin]))
    return ASPath(segments)


class _RowVisibility:
    """Per-row collector facts of one :class:`AnnouncementColumns`.

    - ``masks`` — each row's visible-monitor mask (its origin's entry
      in the visibility table),
    - ``counts`` — ``array('I')`` of mask popcounts,
    - ``shared`` — visible rows whose key another row also has; they
      are folded into a day's table one at a time,
    - ``direct`` — ``bytes`` selector of the visible rows not in
      ``shared``, or ``None`` when that is every row.
    """

    __slots__ = ("rows", "masks", "counts", "shared", "direct")

    def __init__(
        self, rows: AnnouncementColumns, origin_masks: Dict[int, int]
    ) -> None:
        self.rows = rows
        masks = [origin_masks.get(origin, 0) for origin in rows.origins]
        self.masks = masks
        self.counts = array("I", map(_popcount, masks))
        keys = rows.keys
        # Keys are sorted, so rows sharing a key are adjacent.
        repeated = {
            key for key, following in zip(keys, keys[1:]) if key == following
        }
        self.shared = [
            row for row, key in enumerate(keys)
            if key in repeated and masks[row]
        ]
        direct = bytes(
            bool(mask) and key not in repeated
            for key, mask in zip(keys, masks)
        )
        self.direct = None if all(direct) else direct


def _as_day(announcements: Iterable[Announcement]) -> AnnouncementDay:
    """``announcements`` as a day for aggregation.

    A day passes through.  Any other iterable becomes the columns of
    its plain announcements, all selected, with its restricted and
    AS_SET ones as extras: aggregation does not depend on order.
    """
    if isinstance(announcements, AnnouncementDay):
        return announcements
    keys: List[int] = []
    origins: List[int] = []
    extras = []
    for announcement in announcements:
        prefix = announcement.prefix
        key = (prefix.network << 6) | prefix.length
        restricted = announcement.restricted_to_monitors
        if restricted is None and not announcement.as_set_origin:
            keys.append(key)
            origins.append(announcement.origin_asn)
        else:
            extras.append((
                key, announcement.origin_asn, restricted,
                announcement.as_set_origin,
            ))
    rows = AnnouncementColumns.from_sequence(keys, origins)
    return AnnouncementDay(rows, b"\x01" * len(rows), extras)


def _picked(typecode: str, column, selected) -> "array":
    """The ``selected`` entries of ``column`` as an ``array``.

    Built from a list: ``array`` copies a list in one pass, but grows
    item by item from an iterator.
    """
    return array(typecode, list(compress(column, selected)))


def _fold(
    table: PairTable,
    masks: List[int],
    key: int,
    origin: int,
    mask: int,
    flag: int,
) -> None:
    """Fold one visible (key, origin, monitor mask, flag) fact into a
    key-sorted ``table`` whose rows' monitor masks are ``masks``.

    A prefix stays unique-origin only while every fact on it is unique
    and names the same origin; its count is the union's popcount.
    """
    keys = table.keys
    index = bisect_left(keys, key)
    if index == len(keys) or keys[index] != key:
        keys.insert(index, key)
        table.origins.insert(index, origin if flag else 0)
        table.flags.insert(index, flag)
        table.monitor_counts.insert(index, _popcount(mask))
        masks.insert(index, mask)
        return
    masks[index] |= mask
    table.monitor_counts[index] = _popcount(masks[index])
    if table.flags[index] and not (flag and origin == table.origins[index]):
        table.flags[index] = 0
        table.origins[index] = 0


class CollectorSystem:
    """All collector projects plus archive I/O."""

    def __init__(
        self,
        collectors: Iterable[Collector],
        propagation: PropagationModel,
    ):
        self._collectors: Dict[str, Collector] = {}
        for collector in collectors:
            if collector.name in self._collectors:
                raise CollectorDataError(
                    f"duplicate collector {collector.name}"
                )
            self._collectors[collector.name] = collector
        if not self._collectors:
            raise CollectorDataError("need at least one collector")
        self._propagation = propagation
        # Both caches are sound because the collector set and the
        # propagation model are fixed for the system's lifetime.
        self._all_monitors: Optional[FrozenSet[int]] = None
        self._visibility: Optional[
            Tuple[Dict[int, int], Dict[int, int]]
        ] = None
        self._rows_seen: Optional[_RowVisibility] = None

    @property
    def propagation(self) -> PropagationModel:
        return self._propagation

    def collectors(self) -> List[Collector]:
        return [self._collectors[name] for name in sorted(self._collectors)]

    def collector(self, name: str) -> Collector:
        try:
            return self._collectors[name]
        except KeyError:
            raise CollectorDataError(f"unknown collector {name}") from None

    def all_monitors(self) -> FrozenSet[int]:
        """The union of all monitor ASes across projects.

        This is the denominator of the paper's "seen by less than half
        of all BGP monitors" visibility filter.
        """
        if self._all_monitors is None:
            monitors: FrozenSet[int] = frozenset()
            for collector in self._collectors.values():
                monitors |= collector.monitors
            self._all_monitors = monitors
        return self._all_monitors

    def _visibility_table(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """``(monitor -> bit, origin -> visible-monitor mask)``.

        Each monitor owns one bit, in sorted monitor order; an
        origin's mask holds the monitors an unrestricted announcement
        from it reaches (``monitors & (receivers(origin) | {origin})``).
        Built once for the whole topology by
        :meth:`PropagationModel.visible_monitor_masks`, on first use.
        """
        if self._visibility is None:
            bits = {
                monitor: 1 << index
                for index, monitor in enumerate(sorted(self.all_monitors()))
            }
            masks = self._propagation.visible_monitor_masks(bits)
            self._visibility = (bits, masks)
        return self._visibility

    # -- in-memory generation -------------------------------------------

    def records_for_day(
        self,
        announcements: Iterable[Announcement],
        date: datetime.date,
    ) -> Iterator[RouteRecord]:
        """Yield the day's records across every collector."""
        announcements = list(announcements)
        for collector in self.collectors():
            yield from collector.records_for_day(
                announcements, self._propagation, date
            )

    def _row_visibility(self, rows: AnnouncementColumns) -> "_RowVisibility":
        """What the collectors see of each row of ``rows``.

        Computed once per columns object: a source hands the same
        columns to every day it generates.
        """
        seen = self._rows_seen
        if seen is None or seen.rows is not rows:
            seen = _RowVisibility(rows, self._visibility_table()[1])
            self._rows_seen = seen
        return seen

    def pair_table_for_day(
        self, announcements: Iterable[Announcement]
    ) -> PairTable:
        """Aggregate the day straight into a columnar
        :class:`~repro.bgp.rib.PairTable`.

        Same facts as :func:`repro.bgp.stream.prefix_origin_pairs`
        finds in the day's records — per-prefix origin uniqueness and
        distinct monitor count — without building one record per
        (monitor, prefix).  They are read off packed columns: an
        :class:`~repro.bgp.message.AnnouncementDay` as it is, any
        other announcement iterable coerced into one.  The
        day's selected rows are plain and already in key order, so
        they go into the table by ``compress``.  The rest (extras, and
        rows whose key another row shares) are folded in one at a
        time: monitor masks unite with ``|``, and a second origin or an
        AS_SET makes the origin non-unique.  The object-based slot
        loop this replaced is the oracle of
        ``tests/simulation/test_day_table_properties.py``.
        """
        day = _as_day(announcements)
        seen = self._row_visibility(day.rows)
        selected = day.selected
        if seen.direct is not None:
            selected = bytes(map(and_, selected, seen.direct))
        keys = _picked("Q", day.rows.keys, selected)
        table = PairTable(
            keys,
            _picked("Q", day.rows.origins, selected),
            array("B", [UNIQUE_ORIGIN]) * len(keys),
            _picked("I", seen.counts, selected),
        )
        folds = [
            (day.rows.keys[row], day.rows.origins[row], seen.masks[row],
             UNIQUE_ORIGIN)
            for row in seen.shared if day.selected[row]
        ]
        bits, masks = self._visibility_table()
        for key, origin, restricted, as_set in day.extras:
            visible = masks.get(origin, 0)
            if restricted is not None:
                visible &= _mask_of(restricted, bits)
            if visible:
                folds.append(
                    (key, origin, visible, 0 if as_set else UNIQUE_ORIGIN)
                )
        if folds:
            row_masks = list(compress(seen.masks, selected))
            for fold in folds:
                _fold(table, row_masks, *fold)
        return table

    # -- archives --------------------------------------------------------

    def write_day(
        self,
        announcements: Iterable[Announcement],
        date: datetime.date,
        archive_dir: Union[str, pathlib.Path],
    ) -> List[str]:
        """Write one JSONL RIB file per collector; returns the paths."""
        base = pathlib.Path(archive_dir)
        announcements = list(announcements)
        paths: List[str] = []
        for collector in self.collectors():
            directory = base / collector.name
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{date.isoformat()}.jsonl"
            with open(path, "w", encoding="utf-8") as handle:
                for record in collector.records_for_day(
                    announcements, self._propagation, date
                ):
                    handle.write(json.dumps(record.to_json()) + "\n")
            paths.append(str(path))
        return paths

    @staticmethod
    def read_day(
        archive_dir: Union[str, pathlib.Path],
        date: datetime.date,
        collector_name: Optional[str] = None,
    ) -> Iterator[RouteRecord]:
        """Read the day's records back from an archive directory."""
        base = pathlib.Path(archive_dir)
        if collector_name is not None:
            directories = [base / collector_name]
        else:
            directories = sorted(d for d in base.iterdir() if d.is_dir())
        for directory in directories:
            path = directory / f"{date.isoformat()}.jsonl"
            if not path.exists():
                raise CollectorDataError(f"missing archive file: {path}")
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield RouteRecord.from_json(json.loads(line))
                    except (json.JSONDecodeError, KeyError, ValueError) as exc:
                        raise CollectorDataError(
                            f"corrupt archive line in {path}: {exc}"
                        ) from exc
