"""``inetnum`` and ``organisation`` objects.

The paper's RDAP pipeline keys on two ``inetnum`` status values:

- ``SUB-ALLOCATED PA`` — space sub-allocated by an LIR to another
  organization (≈4.5k objects in RIPE's June 2020 database), and
- ``ASSIGNED PA`` — space assigned by an LIR to an end-host (≈3.96M
  objects, 91.4 % of them smaller than /24).

Both are delegation-related; everything else (``ALLOCATED PA``, legacy,
PI space) is not.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import WhoisError
from repro.netbase.prefix import ADDRESS_BITS, IPv4Prefix, format_address


def primary_key(first: int, last: int) -> int:
    """The smallest prefix covering ``[first, last]``, packed as
    ``(network << 6) | length``."""
    host_bits = (first ^ last).bit_length()
    return ((first >> host_bits) << (host_bits + 6)) | (
        ADDRESS_BITS - host_bits
    )


class InetnumStatus(enum.Enum):
    """RIPE ``status:`` attribute values for IPv4 ``inetnum`` objects."""

    ALLOCATED_PA = "ALLOCATED PA"
    ALLOCATED_UNSPECIFIED = "ALLOCATED UNSPECIFIED"
    ASSIGNED_PA = "ASSIGNED PA"
    ASSIGNED_PI = "ASSIGNED PI"
    SUB_ALLOCATED_PA = "SUB-ALLOCATED PA"
    LEGACY = "LEGACY"

    @property
    def is_delegation_related(self) -> bool:
        """True for the two types the paper extracts (§4)."""
        return self in (
            InetnumStatus.ASSIGNED_PA,
            InetnumStatus.SUB_ALLOCATED_PA,
        )

    @classmethod
    def parse(cls, text: str) -> "InetnumStatus":
        for status in cls:
            if status.value == text.strip().upper():
                return status
        raise WhoisError(f"unknown inetnum status: {text!r}")


@dataclass(frozen=True)
class OrgObject:
    """A WHOIS ``organisation`` object (registrant)."""

    handle: str
    name: str

    def __post_init__(self) -> None:
        if not self.handle:
            raise WhoisError("organisation handle cannot be empty")


@dataclass(frozen=True)
class InetnumObject:
    """One ``inetnum`` object: an address range with registration data.

    ``first``/``last`` are inclusive address integers; ranges need not
    be CIDR aligned (real assignments often are not — the paper notes
    91.4 % of ASSIGNED PA entries are *smaller than* /24, many of them
    odd-sized).  ``org_handle`` identifies the registrant,
    ``admin_handle`` the administrative contact; the intra-organization
    filter compares both against the parent block's.
    """

    first: int
    last: int
    netname: str
    status: InetnumStatus
    org_handle: str
    admin_handle: str
    maintainer: str = ""
    created: Optional[datetime.date] = None

    def __post_init__(self) -> None:
        if self.first > self.last:
            raise WhoisError(
                f"inetnum range is empty: {self.range_text()}"
            )
        if not 0 <= self.first <= 0xFFFFFFFF or not 0 <= self.last <= 0xFFFFFFFF:
            raise WhoisError("inetnum range outside IPv4 space")

    # -- derived geometry ------------------------------------------------

    @property
    def num_addresses(self) -> int:
        return self.last - self.first + 1

    @property
    def handle(self) -> str:
        """The range in RIPE's canonical handle form."""
        return self.range_text()

    def range_text(self) -> str:
        return f"{format_address(self.first)} - {format_address(self.last)}"

    def prefixes(self) -> List[IPv4Prefix]:
        """The range as a minimal CIDR list."""
        return IPv4Prefix.from_range(self.first, self.last)

    def primary_prefix(self) -> IPv4Prefix:
        """The single covering prefix used for indexing.

        For a CIDR-aligned range this *is* the range; otherwise it is
        the smallest prefix containing it.
        """
        key = primary_key(self.first, self.last)
        return IPv4Prefix(key >> 6, key & 63)

    @property
    def is_cidr_aligned(self) -> bool:
        host_bits = (self.first ^ self.last).bit_length()
        return self.num_addresses == 1 << host_bits

    def smaller_than(self, length: int) -> bool:
        """True if the range holds fewer addresses than a /``length``.

        The paper ignores all blocks smaller than /24 when querying
        RDAP; this is the predicate behind that filter.
        """
        return self.num_addresses < (1 << (32 - length))

    # -- relations ----------------------------------------------------------

    def contains(self, other: "InetnumObject") -> bool:
        """True if ``other``'s range is inside (or equal to) ours."""
        return self.first <= other.first and other.last <= self.last

    def properly_contains(self, other: "InetnumObject") -> bool:
        return self.contains(other) and (
            self.first != other.first or self.last != other.last
        )

    def same_registrant(self, other: "InetnumObject") -> bool:
        """Intra-organization test: same registrant *or* same admin.

        Mirrors the paper's filter: "we remove intra-organization
        delegations, i.e., where the child block has the same registrant
        or administrator as the parent block."
        """
        return (
            self.org_handle == other.org_handle
            or self.admin_handle == other.admin_handle
        )

    def key(self) -> Tuple[int, int]:
        return (self.first, self.last)
