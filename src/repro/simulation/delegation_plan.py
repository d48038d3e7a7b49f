"""BGP-visible delegation lifecycles.

Turns a :class:`~repro.simulation.scenario.DelegationComposition`
(per-length counts at the window's start and end) into concrete
delegation *specs*: who delegates which prefix to whom, from when to
when, with what announcement pattern.  The composition drift produces
Fig. 6's +7 % count growth, the /24-share rise and /20-share fall, and
the ≈ flat delegated-address curve; the on-off patterns produce the
variance the consistency rule must remove.
"""

from __future__ import annotations

import datetime
import random
from array import array
from bisect import bisect_right
from itertools import compress
from operator import lt
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.netbase.prefix import IPv4Prefix
from repro.registry.pool import FreePool
from repro.simulation.orgs import SimOrg
from repro.simulation.scenario import DelegationComposition


@dataclass(frozen=True)
class OnOffPattern:
    """Deterministic duty cycle: off for ``off_days`` per period."""

    period_days: int
    off_days: int
    phase: int

    def __post_init__(self) -> None:
        if self.period_days < 2 or not 0 < self.off_days < self.period_days:
            raise SimulationError("invalid on-off pattern")

    def is_on(self, day_index: int) -> bool:
        position = (day_index + self.phase) % self.period_days
        return position < self.period_days - self.off_days


@dataclass(frozen=True)
class DelegationSpec:
    """One planned delegation: P' from delegator to delegatee."""

    prefix: IPv4Prefix
    covering_prefix: IPv4Prefix
    delegator: SimOrg
    delegatee_asn: int
    delegatee_org: Optional[SimOrg]
    active_from: datetime.date
    active_until: Optional[datetime.date]
    onoff: Optional[OnOffPattern]
    rdap_registered: bool
    intra_org: bool

    def active_on(self, date: datetime.date) -> bool:
        if date < self.active_from:
            return False
        if self.active_until is not None and date >= self.active_until:
            return False
        return True

    def announced_on(self, date: datetime.date) -> bool:
        if not self.active_on(date):
            return False
        if self.onoff is None:
            return True
        return self.onoff.is_on(date.toordinal())


#: ``active_until`` ordinal of an open-ended spec: past every date.
_OPEN_END = 2 ** 31 - 1


class AnnouncementSchedule:
    """:meth:`DelegationSpec.announced_on` for many rows at once.

    Row ``i`` follows ``specs[i]``; a ``None`` row is announced on
    every date.  Whether a row's window ``[active_from, active_until)``
    holds a date only changes where a window opens or closes, so the
    dates between two such boundaries form an *epoch* sharing one
    window-only mask.  The mask of the last epoch asked for is cached,
    with how many windows had opened and closed by then.  A later
    epoch sets the rows that opened since and clears the rows that
    closed since; an earlier one starts again from the all-zero mask
    and patches forward the same way.
    :meth:`announced` then copies the mask and re-tests only the rows
    with an on-off cycle.
    """

    __slots__ = (
        "_open_rows", "_open_ordinals", "_close_rows",
        "_close_ordinals", "_cycles", "_opened", "_closed", "_mask",
    )

    def __init__(self, specs: Sequence[Optional[DelegationSpec]]):
        # A row without a spec is active from the earliest ordinal.
        starts = array("i", (
            1 if s is None else s.active_from.toordinal() for s in specs
        ))
        ends = array("i", (
            _OPEN_END if s is None or s.active_until is None
            else s.active_until.toordinal()
            for s in specs
        ))
        # Rows by the ordinal their window opens on, and by the one it
        # closes on; an empty window never opens.
        has_window = bytes(map(lt, starts, ends))
        windows = list(compress(range(len(specs)), has_window))
        self._open_rows = array(
            "I", sorted(windows, key=starts.__getitem__)
        )
        self._open_ordinals = array(
            "i", sorted(compress(starts, has_window))
        )
        self._close_rows = array(
            "I", sorted(windows, key=ends.__getitem__)
        )
        self._close_ordinals = array(
            "i", sorted(compress(ends, has_window))
        )
        cycling = [
            (row, s.onoff) for row, s in enumerate(specs)
            if s is not None and s.onoff is not None
        ]
        self._cycles = (
            array("I", (row for row, _ in cycling)),
            array("i", (onoff.phase for _, onoff in cycling)),
            array("i", (onoff.period_days for _, onoff in cycling)),
            array("i", (
                onoff.period_days - onoff.off_days for _, onoff in cycling
            )),
        )
        # Before every window opens, the mask is all zeros.
        self._opened = self._closed = 0
        self._mask = bytearray(len(specs))

    def announced(self, ordinal: int) -> bytearray:
        """Per row, 1 if it is announced on date ordinal ``ordinal``."""
        opened = bisect_right(self._open_ordinals, ordinal)
        closed = bisect_right(self._close_ordinals, ordinal)
        if opened < self._opened or closed < self._closed:
            # An earlier epoch: patch forward from before every window.
            self._mask = bytearray(len(self._mask))
            self._opened = self._closed = 0
        # A window opens before it closes, so setting every row opened
        # since and then clearing every row closed since leaves exactly
        # the windows holding ``ordinal``.
        mask = self._mask
        for row in self._open_rows[self._opened:opened]:
            mask[row] = 1
        for row in self._close_rows[self._closed:closed]:
            mask[row] = 0
        self._opened, self._closed = opened, closed
        selected = bytearray(self._mask)
        for row, phase, period, on in zip(*self._cycles):
            if selected[row] and (ordinal + phase) % period >= on:
                selected[row] = 0
        return selected


class DelegationPlan:
    """All delegation specs of the world plus daily queries."""

    def __init__(self, specs: Sequence[DelegationSpec]):
        self._specs = list(specs)

    @property
    def specs(self) -> List[DelegationSpec]:
        return list(self._specs)

    def cross_org(self) -> List[DelegationSpec]:
        return [s for s in self._specs if not s.intra_org]

    def intra_org(self) -> List[DelegationSpec]:
        return [s for s in self._specs if s.intra_org]

    def active_on(self, date: datetime.date) -> List[DelegationSpec]:
        return [s for s in self._specs if s.active_on(date)]

    def __len__(self) -> int:
        return len(self._specs)


def _spread_dates(
    rng: random.Random,
    start: datetime.date,
    end: datetime.date,
    count: int,
) -> List[datetime.date]:
    """``count`` dates spread roughly uniformly across (start, end)."""
    span = (end - start).days
    if span <= 2 or count == 0:
        return [start] * count
    return sorted(
        start + datetime.timedelta(days=rng.randint(1, span - 1))
        for _ in range(count)
    )


def build_delegation_plan(
    rng: random.Random,
    composition: DelegationComposition,
    lirs: Sequence[SimOrg],
    customers: Sequence[SimOrg],
    window_start: datetime.date,
    window_end: datetime.date,
    *,
    onoff_fraction: float,
    intra_org_fraction: float,
    rdap_overlap_fraction: float,
    carve_pools: Dict[str, FreePool],
    vpn_rotation_chains: int = 0,
    vpn_rotation_period_days: int = 45,
) -> DelegationPlan:
    """Build the world's delegation plan.

    ``carve_pools`` maps LIR org-ids to pools over their holdings;
    delegated prefixes are carved from them so specs never overlap.
    RDAP registration is assigned greedily on shuffled specs until the
    registered *address* share reaches ``rdap_overlap_fraction`` —
    coverage in the paper's §4 comparison is measured in IPs, not in
    delegation counts.

    Delegators are drawn preferentially from LIRs whose §6 business
    model leases space out (ISPs and hosters).
    """
    delegator_candidates = [org for org in lirs if org.holdings]
    if not delegator_candidates:
        raise SimulationError("no LIR has holdings to delegate from")
    # Model-aware weighting: lease-out businesses delegate 3x as often.
    weighted_delegators = [
        org
        for org in delegator_candidates
        for _ in range(3 if org.model.leases_out else 1)
    ]
    two_as_lirs = [org for org in lirs if len(org.asns) >= 2]

    specs: List[DelegationSpec] = []

    def carve(delegator: SimOrg, length: int) -> IPv4Prefix:
        pool = carve_pools[delegator.org_id]
        return pool.allocate(length)

    def covering_of(delegator: SimOrg, prefix: IPv4Prefix) -> IPv4Prefix:
        for holding in delegator.holdings:
            if holding.covers(prefix):
                return holding
        raise SimulationError(
            f"carved prefix {prefix} outside {delegator.org_id} holdings"
        )

    def make_spec(
        length: int,
        active_from: datetime.date,
        active_until: Optional[datetime.date],
    ) -> DelegationSpec:
        delegator = rng.choice(weighted_delegators)
        delegatee = rng.choice(customers)
        prefix = carve(delegator, length)
        onoff = None
        if rng.random() < onoff_fraction:
            period = rng.randint(8, 20)
            # Mostly short gaps (fillable by the (10, 0) rule), a few
            # long ones that survive and leave residual variance.
            if rng.random() < 0.90:
                off = rng.randint(1, min(6, period - 1))
            else:
                off = rng.randint(
                    min(12, period - 1), max(min(12, period - 1), period - 1)
                )
            onoff = OnOffPattern(period, off, rng.randint(0, period - 1))
        return DelegationSpec(
            prefix=prefix,
            covering_prefix=covering_of(delegator, prefix),
            delegator=delegator,
            delegatee_asn=delegatee.primary_asn,
            delegatee_org=delegatee,
            active_from=active_from,
            active_until=active_until,
            onoff=onoff,
            rdap_registered=False,  # assigned after the fact
            intra_org=False,
        )

    # -- cross-org delegations per length ---------------------------------
    lengths = sorted(set(composition.start) | set(composition.end))
    for length in lengths:
        start_count = composition.start.get(length, 0)
        end_count = composition.end.get(length, 0)
        survivors = min(start_count, end_count)
        removals = max(0, start_count - end_count)
        additions = max(0, end_count - start_count)
        # Present the whole window.
        for _ in range(survivors):
            specs.append(make_spec(length, window_start, None))
        # Present at the start, retired mid-window.
        for retire_date in _spread_dates(
            rng, window_start, window_end, removals
        ):
            specs.append(make_spec(length, window_start, retire_date))
        # Added mid-window, open-ended.
        for add_date in _spread_dates(
            rng, window_start, window_end, additions
        ):
            specs.append(make_spec(length, add_date, None))

    # -- RDAP registration: greedy until the address share is met ---------
    shuffled = list(specs)
    rng.shuffle(shuffled)
    total_addresses = sum(s.prefix.num_addresses for s in specs)
    target = rdap_overlap_fraction * total_addresses
    registered_keys = set()
    covered = 0
    for spec in shuffled:
        if covered >= target:
            break
        registered_keys.add(spec.prefix)
        covered += spec.prefix.num_addresses
    specs = [
        DelegationSpec(
            prefix=s.prefix,
            covering_prefix=s.covering_prefix,
            delegator=s.delegator,
            delegatee_asn=s.delegatee_asn,
            delegatee_org=s.delegatee_org,
            active_from=s.active_from,
            active_until=s.active_until,
            onoff=s.onoff,
            rdap_registered=s.prefix in registered_keys,
            intra_org=False,
        )
        for s in specs
    ]

    # -- VPN-provider rotation chains (§6) ---------------------------------
    # A rotating lessee holds exactly one /24 at any time, but the
    # actual prefix changes every rotation period ("harder to block
    # their service").  Chains tile the whole window, so each one
    # contributes a constant +1 to the daily delegation count.
    from repro.simulation.orgs import BusinessModel

    rotators = [
        org for org in customers
        if org.model is BusinessModel.VPN_PROVIDER
    ] or list(customers)
    for chain_index in range(vpn_rotation_chains):
        delegatee = rotators[chain_index % len(rotators)]
        delegator = rng.choice(weighted_delegators)
        segment_start = window_start
        while segment_start < window_end:
            period = max(
                7,
                round(rng.gauss(
                    vpn_rotation_period_days,
                    vpn_rotation_period_days * 0.25,
                )),
            )
            segment_end = min(
                window_end,
                segment_start + datetime.timedelta(days=period),
            )
            prefix = carve(delegator, 24)
            specs.append(
                DelegationSpec(
                    prefix=prefix,
                    covering_prefix=covering_of(delegator, prefix),
                    delegator=delegator,
                    delegatee_asn=delegatee.primary_asn,
                    delegatee_org=delegatee,
                    active_from=segment_start,
                    active_until=(
                        None if segment_end >= window_end else segment_end
                    ),
                    onoff=None,
                    rdap_registered=False,  # rotators skip registration
                    intra_org=False,
                )
            )
            segment_start = segment_end

    # -- intra-organization more-specifics (removed by extension iv) ------
    intra_count = round(len(specs) * intra_org_fraction)
    if intra_count and not two_as_lirs:
        raise SimulationError(
            "intra-org delegations need LIRs with two ASes"
        )
    for _ in range(intra_count):
        delegator = rng.choice(two_as_lirs)
        prefix = carve_pools[delegator.org_id].allocate(24)
        specs.append(
            DelegationSpec(
                prefix=prefix,
                covering_prefix=covering_of(delegator, prefix),
                delegator=delegator,
                delegatee_asn=delegator.asns[1],
                delegatee_org=delegator,
                active_from=window_start,
                active_until=None,
                onoff=None,
                rdap_registered=False,
                intra_org=True,
            )
        )

    return DelegationPlan(specs)
