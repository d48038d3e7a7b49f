"""The five Regional Internet Registries and their exhaustion timelines.

All dates come from Table 1 of the paper and the policy references in
§2.  These constants drive both the registry simulator (policy phase
switching) and the analyses (e.g. Fig. 2 checks that each regional
transfer market starts once its RIR is down to the last /8).
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class RIR(enum.Enum):
    """A Regional Internet Registry."""

    AFRINIC = "afrinic"
    APNIC = "apnic"
    ARIN = "arin"
    LACNIC = "lacnic"
    RIPE = "ripencc"

    @property
    def display_name(self) -> str:
        """Human-readable name as used in the paper."""
        return _DISPLAY_NAMES[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.display_name


_DISPLAY_NAMES: Dict[RIR, str] = {
    RIR.AFRINIC: "AFRINIC",
    RIR.APNIC: "APNIC",
    RIR.ARIN: "ARIN",
    RIR.LACNIC: "LACNIC",
    RIR.RIPE: "RIPE NCC",
}


@dataclass(frozen=True)
class RIRProfile:
    """Static per-RIR facts used throughout the reproduction.

    Attributes mirror §2 and Table 1:

    - ``last_slash8_date`` — when the RIR reached its final /8 and
      entered soft landing.
    - ``depletion_date`` — when the free pool hit zero ("Start of
      Recovery" in Table 1); ``None`` for RIRs that still held space in
      mid-2020 (APNIC's /10, AFRINIC's /11).
    - ``max_allocation_length`` — the longest prefix (smallest block) an
      organization could receive in 2020: /22 for AFRINIC/ARIN/LACNIC,
      /23 for APNIC, /24 for RIPE.
    - ``labels_mna_transfers`` — whether the RIR's published transfer
      statistics label merger-and-acquisition transfers (AFRINIC, ARIN,
      RIPE do; APNIC and LACNIC do not).
    - ``inter_rir_enabled`` — whether the RIR participates in the common
      inter-RIR transfer policy (APNIC, ARIN, RIPE only).
    - ``quarantine_days`` — holding period for recovered space before
      re-issuing (about six months at most RIRs).
    """

    rir: RIR
    region: str
    last_slash8_date: datetime.date
    depletion_date: Optional[datetime.date]
    max_allocation_length: int
    labels_mna_transfers: bool
    inter_rir_enabled: bool
    quarantine_days: int = 183
    waiting_list_peak: int = 0


_PROFILES: Tuple[RIRProfile, ...] = (
    RIRProfile(
        rir=RIR.AFRINIC,
        region="Africa",
        last_slash8_date=datetime.date(2017, 3, 31),
        depletion_date=None,  # still allocating from its last /11
        max_allocation_length=22,
        labels_mna_transfers=True,
        inter_rir_enabled=False,
    ),
    RIRProfile(
        rir=RIR.APNIC,
        region="Asia Pacific",
        last_slash8_date=datetime.date(2011, 4, 15),
        depletion_date=None,  # still has part of a /10
        max_allocation_length=23,
        labels_mna_transfers=False,
        inter_rir_enabled=True,
    ),
    RIRProfile(
        rir=RIR.ARIN,
        region="North America",
        last_slash8_date=datetime.date(2014, 4, 23),
        depletion_date=datetime.date(2015, 9, 24),
        max_allocation_length=22,
        labels_mna_transfers=True,
        inter_rir_enabled=True,
        waiting_list_peak=202,
    ),
    RIRProfile(
        rir=RIR.LACNIC,
        region="Latin America and the Caribbean",
        last_slash8_date=datetime.date(2017, 2, 15),
        depletion_date=datetime.date(2020, 8, 19),
        max_allocation_length=22,
        labels_mna_transfers=False,
        inter_rir_enabled=False,
        waiting_list_peak=275,
    ),
    RIRProfile(
        rir=RIR.RIPE,
        region="Europe and the Middle East",
        last_slash8_date=datetime.date(2012, 9, 14),
        depletion_date=datetime.date(2019, 11, 25),
        max_allocation_length=24,
        labels_mna_transfers=True,
        inter_rir_enabled=True,
        waiting_list_peak=110,
    ),
)

_PROFILE_INDEX: Dict[RIR, RIRProfile] = {p.rir: p for p in _PROFILES}

#: Date IANA handed its last /8s to APNIC; no central replenishment after.
IANA_EXHAUSTION_DATE = datetime.date(2011, 1, 31)

#: The three RIRs that agreed on a common inter-RIR transfer policy.
INTER_RIR_PARTIES = frozenset(
    p.rir for p in _PROFILES if p.inter_rir_enabled
)


def profile_for(rir: RIR) -> RIRProfile:
    """Return the static profile of ``rir``."""
    return _PROFILE_INDEX[rir]
