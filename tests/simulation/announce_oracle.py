"""The object-based day generator and aggregator, kept as test oracles.

The library generates each day from packed spec columns
(:class:`~repro.simulation.announce.AnnouncementSource`) and aggregates
it into a :class:`~repro.bgp.rib.PairTable` without building
``Announcement`` objects
(:meth:`~repro.bgp.collector.CollectorSystem.pair_table_for_day`).
This module keeps the original implementations, unchanged in what they
draw and compute, as the independent references the day-table
property suite holds the packed path to:

- :class:`ReferenceAnnouncementSource` builds one ``Announcement`` per
  route, scanning the delegation plan's spec objects (twice on MOAS
  days) and picking the hijacked /24 from a list of ``IPv4Prefix``
  subnets;
- :func:`reference_pair_table` folds any announcement iterable into
  one mutable slot per prefix.
"""

import datetime
import random
from typing import Dict, FrozenSet, Iterable, List, Sequence

from repro.bgp.collector import CollectorSystem
from repro.bgp.message import Announcement
from repro.bgp.rib import PairTable
from repro.simulation.delegation_plan import DelegationPlan, DelegationSpec
from repro.simulation.orgs import SimOrg


class ReferenceAnnouncementSource:
    """Callable day → list of ``Announcement`` objects.

    Takes the same arguments as
    :class:`~repro.simulation.announce.AnnouncementSource` and makes
    the same ``rng`` draws, so both must announce the same routes in
    the same order.
    """

    def __init__(
        self,
        seed: int,
        lirs: Sequence[SimOrg],
        customers: Sequence[SimOrg],
        plan: DelegationPlan,
        monitors: FrozenSet[int],
        *,
        hijack_rate: float = 0.15,
        as_set_rate: float = 0.10,
        moas_rate: float = 0.05,
    ):
        self._seed = seed
        self._lirs = list(lirs)
        self._customers = list(customers)
        self._plan = plan
        self._monitors = sorted(monitors)
        self._hijack_rate = hijack_rate
        self._as_set_rate = as_set_rate
        self._moas_rate = moas_rate
        self._base = [
            Announcement(holding, org.primary_asn)
            for org in self._lirs
            for holding in org.holdings
        ]

    def _rng_for(self, date: datetime.date) -> random.Random:
        return random.Random(f"{self._seed}:{date.toordinal()}")

    def _announced_on(self, date: datetime.date) -> List[DelegationSpec]:
        return [s for s in self._plan.specs if s.announced_on(date)]

    def __call__(self, date: datetime.date) -> List[Announcement]:
        announcements = list(self._base)
        for spec in self._announced_on(date):
            announcements.append(
                Announcement(spec.prefix, spec.delegatee_asn)
            )

        rng = self._rng_for(date)
        if rng.random() < self._hijack_rate and self._base:
            victim = rng.choice(self._base)
            if victim.prefix.length <= 23:
                target = rng.choice(list(victim.prefix.subnets(24)))
                hijacker = rng.choice(self._customers)
                subset = frozenset(
                    rng.sample(
                        self._monitors,
                        max(1, len(self._monitors) // 5),
                    )
                )
                announcements.append(
                    Announcement(
                        target,
                        hijacker.primary_asn,
                        restricted_to_monitors=subset,
                    )
                )
        if rng.random() < self._as_set_rate and self._plan.specs:
            spec = rng.choice(self._plan.specs)
            if spec.announced_on(date):
                announcements.append(
                    Announcement(
                        spec.prefix, spec.delegatee_asn, as_set_origin=True
                    )
                )
        if rng.random() < self._moas_rate:
            active = self._announced_on(date)
            if active:
                spec = rng.choice(active)
                other = rng.choice(self._customers)
                if other.primary_asn != spec.delegatee_asn:
                    announcements.append(
                        Announcement(spec.prefix, other.primary_asn)
                    )
        return announcements


def reference_pair_table(
    system: CollectorSystem, announcements: Iterable[Announcement]
) -> PairTable:
    """Aggregate announcements with one slot per prefix.

    slot = [first origin, saw AS_SET, visible-monitor mask, saw another
    origin]; a prefix is unique-origin unless it saw an AS_SET or a
    second origin, and its monitor count is the mask's popcount.
    """
    slots: Dict[int, list] = {}
    bits, masks = system._visibility_table()
    for announcement in announcements:
        origin = announcement.origin_asn
        visible = masks.get(origin, 0)
        if announcement.restricted_to_monitors is not None:
            restricted = 0
            for monitor in announcement.restricted_to_monitors:
                restricted |= bits.get(monitor, 0)
            visible &= restricted
        if not visible:
            continue
        prefix = announcement.prefix
        key = (prefix.network << 6) | prefix.length
        slot = slots.get(key)
        if slot is None:
            slots[key] = [origin, announcement.as_set_origin, visible, False]
            continue
        if origin != slot[0]:
            slot[3] = True
        if announcement.as_set_origin:
            slot[1] = True
        slot[2] |= visible
    aggregate = {}
    for key, slot in slots.items():
        unique = not (slot[1] or slot[3])
        aggregate[key] = (
            slot[0] if unique else 0, unique, bin(slot[2]).count("1")
        )
    return PairTable.from_aggregate(aggregate)
