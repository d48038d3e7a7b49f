"""The paper's route-sanitization rules (§4, "BGP-delegations").

"To sanitize our data, we remove all routes for private and reserved
address space, routes that contain ASes currently reserved by IANA, and
routes that contain a loop in their AS-PATH."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bgp.message import RouteRecord
from repro.netbase.bogons import is_bogon


@dataclass
class SanitizeStats:
    """Counters for what sanitization removed."""

    kept: int = 0
    bogon_prefix: int = 0
    reserved_asn: int = 0
    as_path_loop: int = 0

    @property
    def removed(self) -> int:
        return self.bogon_prefix + self.reserved_asn + self.as_path_loop

    @property
    def total(self) -> int:
        return self.kept + self.removed


def sanitize_paths(
    records: Iterable[RouteRecord],
    stats: "SanitizeStats | None" = None,
) -> Iterator[RouteRecord]:
    """Yield the records whose AS path passes both AS-path rules.

    Routes carrying an ASN reserved by IANA go first, then routes with
    a loop in their AS path.  The bogon rule is left out: it depends on
    the prefix alone, so the per-day kernel applies it to whole
    prefix-origin pairs.
    """
    for record in records:
        if record.as_path.has_reserved_asn():
            if stats is not None:
                stats.reserved_asn += 1
            continue
        if record.as_path.has_loop():
            if stats is not None:
                stats.as_path_loop += 1
            continue
        if stats is not None:
            stats.kept += 1
        yield record


def sanitize_records(
    records: Iterable[RouteRecord],
    stats: "SanitizeStats | None" = None,
) -> Iterator[RouteRecord]:
    """Yield only clean records, attributing removals to their rule.

    Rules are checked in the paper's order, so a record failing several
    is counted against the first.
    """

    def routable() -> Iterator[RouteRecord]:
        for record in records:
            if is_bogon(record.prefix):
                if stats is not None:
                    stats.bogon_prefix += 1
                continue
            yield record

    return sanitize_paths(routable(), stats)
