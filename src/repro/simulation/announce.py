"""The per-day BGP announcement source.

Produces the world's routing intent for any date:

1. every LIR announces its holdings from its primary AS,
2. every delegation announced on that day contributes its
   more-specific from the delegatee AS (cross-org) or the LIR's second
   AS (intra-org),
3. noise events — localized more-specific hijacks (restricted monitor
   visibility, removed by the visibility filter), AS_SET-origin
   artifacts and MOAS conflicts (removed by the unique-origin filter).

All randomness is keyed on (seed, date) so any day can be regenerated
independently and reproducibly.

A day is an :class:`~repro.bgp.message.AnnouncementDay`, not a list of
``Announcement`` objects: the holdings and specs are packed once into
key-sorted columns with each row's schedule, and a day is the
schedule's per-row flags (a cached window mask, re-tested only on the
rows with an on/off cycle) plus at most three noise rows.
"""

from __future__ import annotations

import datetime
import random
from array import array
from itertools import compress
from typing import FrozenSet, List, Sequence

from repro.bgp.message import (
    AnnouncementColumns, AnnouncementDay, ExtraRoute,
)
from repro.netbase.lpm import pack
from repro.simulation.delegation_plan import (
    AnnouncementSchedule, DelegationPlan,
)
from repro.simulation.orgs import SimOrg


class AnnouncementSource:
    """Callable day → :class:`~repro.bgp.message.AnnouncementDay`, for
    :class:`~repro.bgp.stream.RouteStream`.

    Rows of the shared columns, in sequence order: the LIR holdings
    (announced every day), then the plan's specs in plan order.  The
    noise draws are the ``rng`` calls of the object-based generator on
    sequences of the same lengths (``tests/simulation/
    announce_oracle.py``), so every day announces the same routes.
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
        self._customer_asns = array(
            "Q", (org.primary_asn for org in customers)
        )
        self._monitors = sorted(monitors)
        self._hijack_rate = hijack_rate
        self._as_set_rate = as_set_rate
        self._moas_rate = moas_rate
        self._base_keys = array("Q", (
            pack(holding.network, holding.length)
            for org in lirs
            for holding in org.holdings
        ))
        base_origins = array("Q", (
            org.primary_asn for org in lirs for _holding in org.holdings
        ))
        specs = plan.specs
        self._spec_count = len(specs)
        self._rows = AnnouncementColumns.from_sequence(
            self._base_keys + array("Q", (
                pack(spec.prefix.network, spec.prefix.length)
                for spec in specs
            )),
            base_origins + array("Q", (spec.delegatee_asn for spec in specs)),
        )
        order = self._rows.order
        # Each row's schedule, in row (key) order; holdings (no spec)
        # are announced every day.
        sequence = [None] * len(self._base_keys) + specs
        self._schedule = AnnouncementSchedule(
            [sequence[position] for position in order]
        )
        # Sequence position -> row.
        self._row_of = array("I", bytes(4 * len(order)))
        for row, position in enumerate(order):
            self._row_of[position] = row

    def _rng_for(self, date: datetime.date) -> random.Random:
        return random.Random(f"{self._seed}:{date.toordinal()}")

    def __call__(self, date: datetime.date) -> AnnouncementDay:
        rows = self._rows
        base = len(self._base_keys)
        selected = self._schedule.announced(date.toordinal())
        extras: List[ExtraRoute] = []

        rng = self._rng_for(date)
        # Localized more-specific hijack: only a small monitor subset
        # sees it, so the visibility filter must drop it.
        if rng.random() < self._hijack_rate and self._base_keys:
            victim = rng.choice(self._base_keys)
            length = victim & 0x3F
            if length <= 23:
                # The /24s of the victim in ascending order, by index.
                subnet = rng.choice(range(1 << (24 - length)))
                hijacker = rng.choice(self._customer_asns)
                subset = frozenset(
                    rng.sample(
                        self._monitors,
                        max(1, len(self._monitors) // 5),
                    )
                )
                extras.append((
                    pack((victim >> 6) + (subnet << 8), 24),
                    hijacker, subset, False,
                ))
        # AS_SET artifact: proxy aggregation leaves a set origin.
        if rng.random() < self._as_set_rate and self._spec_count:
            row = self._row_of[base + rng.choice(range(self._spec_count))]
            if selected[row]:
                extras.append((rows.keys[row], rows.origins[row], None, True))
        # MOAS conflict: a second AS briefly originates the same prefix.
        if rng.random() < self._moas_rate:
            # Announced specs in plan order: the holdings, always
            # announced, fill the first ``base`` positions.
            active = sorted(compress(rows.order, selected))[base:]
            if active:
                row = self._row_of[rng.choice(active)]
                other = rng.choice(self._customer_asns)
                if other != rows.origins[row]:
                    extras.append((rows.keys[row], other, None, False))
        return AnnouncementDay(rows, selected, extras)
