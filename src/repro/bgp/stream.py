"""A pybgpstream-like reader interface.

The delegation pipeline consumes daily routing data through one narrow
interface — :class:`RouteStream` — which can be backed either by an
in-memory day generator (fast path used by benchmarks) or by on-disk
collector archives (exercised by tests and examples).  This mirrors how
code written against pybgpstream does not care which collector archive
the elements came from.
"""

from __future__ import annotations

import datetime
import pathlib
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.bgp.collector import CollectorSystem
from repro.bgp.message import Announcement, RouteRecord
from repro.bgp.sanitize import SanitizeStats, sanitize_paths
from repro.errors import CollectorDataError
from repro.netbase.asnum import OriginSet
from repro.netbase.prefix import IPv4Prefix
from repro.obs.metrics import NULL, MetricsRegistry

#: A function returning the day's announcements (the world's behaviour).
AnnouncementSource = Callable[[datetime.date], Iterable[Announcement]]


def date_range(
    start: datetime.date,
    end: datetime.date,
    step_days: int = 1,
) -> Iterator[datetime.date]:
    """Yield dates from ``start`` (inclusive) to ``end`` (exclusive)."""
    if step_days <= 0:
        raise ValueError("step_days must be positive")
    current = start
    while current < end:
        yield current
        current += datetime.timedelta(days=step_days)


class RouteStream:
    """Iterate route records day by day, like a BGPStream session."""

    def __init__(
        self,
        system: CollectorSystem,
        source: Optional[AnnouncementSource] = None,
        archive_dir: Optional[Union[str, pathlib.Path]] = None,
    ):
        if (source is None) == (archive_dir is None):
            raise CollectorDataError(
                "provide exactly one of source / archive_dir"
            )
        self._system = system
        self._source = source
        self._archive_dir = archive_dir
        self._monitor_count: Optional[int] = None
        self._metrics: MetricsRegistry = NULL

    @property
    def system(self) -> CollectorSystem:
        return self._system

    def set_metrics(self, metrics: MetricsRegistry) -> None:
        """Route record/pair accounting into ``metrics``.

        Off by default (the shared no-op registry): the per-record
        counting path is only entered when a real registry is
        attached, so uninstrumented streams read at full speed.
        """
        self._metrics = metrics

    def monitor_count(self) -> int:
        """Total number of monitors feeding the stream.

        Cached: the monitor population is fixed for a stream's
        lifetime, and per-day pipelines ask for it on every day.
        """
        if self._monitor_count is None:
            self._monitor_count = len(self._system.all_monitors())
        return self._monitor_count

    def records_on(self, date: datetime.date) -> Iterator[RouteRecord]:
        """All route records of one day."""
        if self._source is not None:
            records = self._system.records_for_day(
                self._source(date), date
            )
        else:
            assert self._archive_dir is not None
            records = CollectorSystem.read_day(self._archive_dir, date)
        if not self._metrics.enabled:
            yield from records
            return
        count = 0
        for record in records:
            count += 1
            yield record
        self._metrics.inc("stream.records_read", count)
        self._metrics.inc("stream.days_read")

    def pair_table_on(self, date: datetime.date):
        """One day's pairs as a columnar :class:`~repro.bgp.rib.
        PairTable` — the input of the per-day inference kernel.

        Source-backed streams aggregate the source's packed day
        straight into packed arrays
        (:meth:`CollectorSystem.pair_table_for_day`), under two child
        spans: ``simulation.announce`` (making the day) and
        ``bgp.aggregate`` (aggregating it).  Archive-backed streams
        first drop the routes that break the paper's AS-path rules
        (:func:`~repro.bgp.sanitize.sanitize_paths`), counted as
        ``stream.sanitize.reserved_asn`` and
        ``stream.sanitize.as_path_loop``, then aggregate the rest.
        Bogon prefixes stay in the table for either kind: the kernel
        drops them per pair.  The whole day runs in the
        ``stream.pairs_on`` span.
        """
        from repro.bgp.rib import PairTable

        metrics = self._metrics
        with metrics.span("stream.pairs_on"):
            if self._source is not None:
                with metrics.span("simulation.announce"):
                    day = self._source(date)
                with metrics.span("bgp.aggregate"):
                    table = self._system.pair_table_for_day(day)
            else:
                stats = SanitizeStats()
                table = PairTable.from_pairs(prefix_origin_pairs(
                    sanitize_paths(self.records_on(date), stats)
                ))
                metrics.inc(
                    "stream.sanitize.reserved_asn", stats.reserved_asn
                )
                metrics.inc(
                    "stream.sanitize.as_path_loop", stats.as_path_loop
                )
        metrics.inc("stream.pairs_aggregated", len(table))
        return table


def prefix_origin_pairs(
    records: Iterable[RouteRecord],
) -> Dict[IPv4Prefix, Tuple[OriginSet, int]]:
    """Aggregate records into per-prefix origin sets and visibility.

    Returns ``prefix -> (merged OriginSet, distinct monitor count)``.
    The merged origin set becomes non-unique when monitors disagree on
    the origin (MOAS) or any observation carried an AS_SET — exactly
    the two conditions inference step (iii) removes.
    """
    origins: Dict[IPv4Prefix, OriginSet] = {}
    monitors: Dict[IPv4Prefix, set] = {}
    for record in records:
        origin = record.as_path.origin()
        existing = origins.get(record.prefix)
        origins[record.prefix] = (
            origin if existing is None else existing.merge(origin)
        )
        monitors.setdefault(record.prefix, set()).add(
            (record.collector, record.monitor_asn)
        )
    return {
        prefix: (origins[prefix], len({m for _c, m in monitors[prefix]}))
        for prefix in origins
    }
