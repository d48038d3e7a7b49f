"""The dict aggregator that one day's pair table replaced, as an oracle.

:func:`pair_counts_for_day` folds a day's announcements into
``prefix -> (OriginSet, distinct monitor count)`` one announcement at
a time, with the collector system's monitor masks — the facts
:func:`repro.bgp.stream.prefix_origin_pairs` finds in the day's
records, without materializing them.  The library now aggregates
days only into packed tables
(:meth:`~repro.bgp.collector.CollectorSystem.pair_table_for_day`);
this keeps the object version for the tests that compare the two
(``test_pairtable.py``, ``test_visibility_properties.py``) and for
the trie reference kernel.
"""

from typing import Dict, Iterable

from repro.bgp.collector import CollectorSystem, _mask_of, _popcount
from repro.bgp.message import Announcement
from repro.netbase.asnum import OriginSet


def pair_counts_for_day(
    system: CollectorSystem, announcements: Iterable[Announcement]
) -> Dict[object, tuple]:
    """``prefix -> (OriginSet, distinct monitor count)`` for one day."""
    origins: Dict[object, OriginSet] = {}
    seen_monitors: Dict[object, int] = {}
    bits, masks = system._visibility_table()
    for announcement in announcements:
        origin = announcement.origin_asn
        visible = masks.get(origin, 0)
        if announcement.restricted_to_monitors is not None:
            visible &= _mask_of(announcement.restricted_to_monitors, bits)
        if not visible:
            continue
        origin_set = OriginSet(
            (origin,), from_as_set=announcement.as_set_origin
        )
        prefix = announcement.prefix
        existing = origins.get(prefix)
        origins[prefix] = (
            origin_set if existing is None else existing.merge(origin_set)
        )
        seen_monitors[prefix] = seen_monitors.get(prefix, 0) | visible
    return {
        prefix: (origins[prefix], _popcount(seen_monitors[prefix]))
        for prefix in origins
    }
