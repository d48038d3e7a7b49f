"""Autonomous-system number validation and origin sets.

The delegation-inference pipeline must drop routes whose AS path
contains numbers "currently reserved by IANA" (paper §4, sanitization
step), and must distinguish single-origin announcements from AS_SET /
multi-origin (MOAS) ones.  This module provides both.

Reserved ranges follow the IANA "Autonomous System (AS) Numbers"
registry as of mid-2020.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

from repro.errors import ASNumberError

#: Largest 4-byte AS number.
MAX_ASN = 4_294_967_295

#: AS_TRANS (RFC 6793): placeholder for 4-byte ASNs on 2-byte sessions.
AS_TRANS = 23_456

#: (first, last) ranges IANA reserves outside private use.
_RESERVED_RANGES: Tuple[Tuple[int, int], ...] = (
    (0, 0),                          # RFC 7607
    (AS_TRANS, AS_TRANS),            # RFC 6793
    (64_496, 64_511),                # RFC 5398 documentation
    (65_535, 65_535),                # RFC 7300
    (65_536, 65_551),                # RFC 5398 documentation
    (65_552, 131_071),               # IANA reserved
    (MAX_ASN, MAX_ASN),              # RFC 7300
)

#: (first, last) private-use ranges (RFC 6996).
_PRIVATE_RANGES: Tuple[Tuple[int, int], ...] = (
    (64_512, 65_534),
    (4_200_000_000, 4_294_967_294),
)


def validate_asn(asn: int) -> int:
    """Return ``asn`` if it is a syntactically valid AS number.

    Raises :class:`~repro.errors.ASNumberError` otherwise.  Reserved and
    private numbers are *valid* here — filtering them out is a policy
    decision made by :func:`is_reserved_asn` / :func:`is_private_asn`.
    """
    if not isinstance(asn, int) or isinstance(asn, bool):
        raise ASNumberError(f"AS number must be an int, got {asn!r}")
    if not 0 <= asn <= MAX_ASN:
        raise ASNumberError(f"AS number out of range: {asn}")
    return asn


def is_reserved_asn(asn: int) -> bool:
    """True if IANA reserves ``asn`` (excluding private-use ranges)."""
    validate_asn(asn)
    return any(first <= asn <= last for first, last in _RESERVED_RANGES)


def is_private_asn(asn: int) -> bool:
    """True if ``asn`` is in an RFC 6996 private-use range."""
    validate_asn(asn)
    return any(first <= asn <= last for first, last in _PRIVATE_RANGES)


class OriginSet:
    """The origin of a prefix announcement as seen in BGP.

    A prefix's origin is usually a single AS, but can be an AS_SET (the
    result of proxy aggregation) or — across monitors — a set of
    distinct origins (MOAS).  The paper's inference algorithm drops both
    non-singleton cases (step iii), so the class exposes
    :attr:`is_unique` and :meth:`sole_origin` prominently.
    """

    __slots__ = ("_origins", "_from_as_set")

    def __init__(self, origins: Iterable[int], *, from_as_set: bool = False):
        frozen = frozenset(validate_asn(asn) for asn in origins)
        if not frozen:
            raise ASNumberError("origin set cannot be empty")
        self._origins: FrozenSet[int] = frozen
        self._from_as_set = bool(from_as_set)

    @classmethod
    def single(cls, asn: int) -> "OriginSet":
        """An ordinary single-AS origin."""
        return cls((asn,))

    @property
    def origins(self) -> FrozenSet[int]:
        """The member AS numbers."""
        return self._origins

    @property
    def from_as_set(self) -> bool:
        """True if the origin came from an AS_SET path segment."""
        return self._from_as_set

    @property
    def is_unique(self) -> bool:
        """True for a plain single-AS origin (not AS_SET, not MOAS)."""
        return len(self._origins) == 1 and not self._from_as_set

    def sole_origin(self) -> int:
        """Return the single origin AS; raises if not unique."""
        if not self.is_unique:
            raise ASNumberError(f"origin is not unique: {self!r}")
        return next(iter(self._origins))

    def merge(self, other: "OriginSet") -> "OriginSet":
        """Combine two observations of the same prefix (MOAS union)."""
        return OriginSet(
            self._origins | other._origins,
            from_as_set=self._from_as_set or other._from_as_set,
        )

    def __contains__(self, asn: int) -> bool:
        return asn in self._origins

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._origins))

    def __len__(self) -> int:
        return len(self._origins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OriginSet):
            return NotImplemented
        return (
            self._origins == other._origins
            and self._from_as_set == other._from_as_set
        )

    def __hash__(self) -> int:
        return hash((self._origins, self._from_as_set))

    def __repr__(self) -> str:
        members = ",".join(str(asn) for asn in sorted(self._origins))
        tag = " AS_SET" if self._from_as_set else ""
        return f"<OriginSet {{{members}}}{tag}>"
