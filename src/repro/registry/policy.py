"""Phase-dependent IPv4 allocation policy.

Each RIR moves through three phases (§2 of the paper):

- **NORMAL** — need-based allocations up to a generous maximum.
- **SOFT_LANDING** — after reaching the last /8: one small block per
  member, tighter maximum sizes.
- **EXHAUSTED** — free pool empty: requests are approved onto a waiting
  list and fulfilled from recovered space only.

:class:`AllocationPolicy` answers "what is the largest block this
organization may receive on this date, and may it receive one at all?".
The per-RIR phase schedule is derived from the Table-1 dates in
:mod:`repro.registry.rir`.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import PolicyError
from repro.registry.rir import RIR, RIRProfile

#: Block size cap during NORMAL phase (a /14 — generous, pre-scarcity).
NORMAL_PHASE_MAX_LENGTH = 14

#: APNIC abolished its waiting list on this date (§2).
APNIC_WAITLIST_ABOLISHED = datetime.date(2019, 7, 2)


class PolicyPhase(enum.Enum):
    """The lifecycle phase of an RIR's IPv4 pool."""

    NORMAL = "normal"
    SOFT_LANDING = "soft-landing"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of a policy check.

    ``approved`` means the request may proceed (immediately if
    ``waitlisted`` is False, else queued).  ``granted_length`` is the
    prefix length the policy allows, which may be smaller (longer) than
    requested.
    """

    approved: bool
    waitlisted: bool
    granted_length: Optional[int]
    reason: str


class AllocationPolicy:
    """The allocation policy of a single RIR over time."""

    def __init__(self, profile: RIRProfile):
        self._profile = profile

    @property
    def profile(self) -> RIRProfile:
        return self._profile

    # -- phase ---------------------------------------------------------

    def phase_on(self, date: datetime.date) -> PolicyPhase:
        """The policy phase in force on ``date``."""
        if date < self._profile.last_slash8_date:
            return PolicyPhase.NORMAL
        depletion = self._profile.depletion_date
        if depletion is not None and date >= depletion:
            return PolicyPhase.EXHAUSTED
        return PolicyPhase.SOFT_LANDING

    def max_allocation_length(self, date: datetime.date) -> int:
        """Longest prefix (smallest block) allocatable on ``date``.

        Returned as a prefix *length*: during soft landing this is the
        RIR's 2020 cap (/22../24 depending on the RIR); before the last
        /8 it is the generous NORMAL-phase /14.
        """
        if self.phase_on(date) is PolicyPhase.NORMAL:
            return NORMAL_PHASE_MAX_LENGTH
        return self._profile.max_allocation_length

    def waiting_list_active(self, date: datetime.date) -> bool:
        """Whether unfulfillable approved requests queue on ``date``.

        APNIC abolished its list in July 2019; every other RIR queues
        once soft landing has begun.
        """
        if self.phase_on(date) is PolicyPhase.NORMAL:
            return False
        if (
            self._profile.rir is RIR.APNIC
            and date >= APNIC_WAITLIST_ABOLISHED
        ):
            return False
        return True

    # -- decisions ---------------------------------------------------------

    def evaluate_request(
        self,
        date: datetime.date,
        requested_length: int,
        *,
        existing_allocations: int = 0,
        pool_can_satisfy: bool = True,
    ) -> AllocationDecision:
        """Evaluate an allocation request under the active policy.

        ``existing_allocations`` is the number of blocks the requesting
        LIR already received from this RIR; during soft landing and
        exhaustion, members are limited to a single final block (this is
        the "only hands out addresses to new members" behaviour the
        paper describes for APNIC).
        """
        if not 0 <= requested_length <= 32:
            raise PolicyError(f"invalid prefix length: {requested_length}")
        phase = self.phase_on(date)
        cap = self.max_allocation_length(date)
        granted = max(requested_length, cap)
        if phase is PolicyPhase.NORMAL:
            return AllocationDecision(
                approved=True,
                waitlisted=False,
                granted_length=granted,
                reason="need-based allocation (normal phase)",
            )
        if existing_allocations >= 1:
            return AllocationDecision(
                approved=False,
                waitlisted=False,
                granted_length=None,
                reason="final-/8 policy: one block per member",
            )
        if phase is PolicyPhase.SOFT_LANDING and pool_can_satisfy:
            return AllocationDecision(
                approved=True,
                waitlisted=False,
                granted_length=granted,
                reason="soft-landing allocation from remaining pool",
            )
        if self.waiting_list_active(date):
            return AllocationDecision(
                approved=True,
                waitlisted=True,
                granted_length=granted,
                reason="approved; queued until space is recovered",
            )
        return AllocationDecision(
            approved=False,
            waitlisted=False,
            granted_length=None,
            reason="pool exhausted and no waiting list",
        )

    def validate_transfer_block(
        self, date: datetime.date, length: int
    ) -> None:
        """Check a to-be-transferred block against policy minima.

        All five RIRs require transferred blocks to be /24 or larger
        (shorter length); this guard rejects nonsense like /30 splits.
        """
        if length > 24:
            raise PolicyError(
                f"blocks smaller than /24 are not transferable (got /{length})"
            )

    def __repr__(self) -> str:
        return f"<AllocationPolicy {self._profile.rir.display_name}>"
