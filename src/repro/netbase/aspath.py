"""AS-path model with AS_SEQUENCE / AS_SET segments and loop detection.

The route sanitizer in :mod:`repro.bgp.sanitize` implements the paper's
three cleaning rules; two of them ("routes that contain ASes currently
reserved by IANA" and "routes that contain a loop in their AS-PATH")
operate on this representation.  The textual format follows the common
collector convention: space-separated AS numbers, with AS_SET segments
written as ``{1,2,3}``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ASPathError
from repro.netbase.asnum import OriginSet, is_reserved_asn, validate_asn


class SegmentType(enum.Enum):
    """BGP path-segment types (RFC 4271 §4.3)."""

    SEQUENCE = "AS_SEQUENCE"
    SET = "AS_SET"


class ASPathSegment:
    """One path segment: an ordered sequence or an unordered set."""

    __slots__ = ("_type", "_asns")

    def __init__(self, segment_type: SegmentType, asns: Iterable[int]):
        members = tuple(validate_asn(asn) for asn in asns)
        if not members:
            raise ASPathError("path segment cannot be empty")
        self._type = segment_type
        self._asns = members

    @property
    def segment_type(self) -> SegmentType:
        return self._type

    @property
    def asns(self) -> Tuple[int, ...]:
        return self._asns

    @property
    def is_set(self) -> bool:
        return self._type is SegmentType.SET

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPathSegment):
            return NotImplemented
        if self._type is not other._type:
            return False
        if self.is_set:
            return set(self._asns) == set(other._asns)
        return self._asns == other._asns

    def __hash__(self) -> int:
        if self.is_set:
            return hash((self._type, frozenset(self._asns)))
        return hash((self._type, self._asns))

    def __iter__(self) -> Iterator[int]:
        return iter(self._asns)

    def __len__(self) -> int:
        return len(self._asns)

    def __str__(self) -> str:
        if self.is_set:
            return "{" + ",".join(str(a) for a in self._asns) + "}"
        return " ".join(str(a) for a in self._asns)

    def __repr__(self) -> str:
        return f"<ASPathSegment {self._type.value} {self}>"


class ASPath:
    """A full AS path, e.g. ``ASPath.parse("3356 1299 {64500,64501}")``.

    The path is stored segment-wise so AS_SET semantics survive a
    parse/format round trip.
    """

    __slots__ = ("_segments",)

    def __init__(self, segments: Sequence[ASPathSegment]):
        self._segments: Tuple[ASPathSegment, ...] = tuple(segments)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_asns(cls, asns: Iterable[int]) -> "ASPath":
        """Build a pure AS_SEQUENCE path from AS numbers."""
        asns = list(asns)
        if not asns:
            return cls(())
        return cls((ASPathSegment(SegmentType.SEQUENCE, asns),))

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse the collector textual form (``"701 3356 {1,2}"``)."""
        segments: List[ASPathSegment] = []
        sequence: List[int] = []
        tokens = text.split()
        for token in tokens:
            if token.startswith("{"):
                if not token.endswith("}"):
                    raise ASPathError(f"unterminated AS_SET in {text!r}")
                if sequence:
                    segments.append(
                        ASPathSegment(SegmentType.SEQUENCE, sequence)
                    )
                    sequence = []
                body = token[1:-1]
                members = [m for m in body.split(",") if m]
                if not members:
                    raise ASPathError(f"empty AS_SET in {text!r}")
                try:
                    segments.append(
                        ASPathSegment(
                            SegmentType.SET, [int(m) for m in members]
                        )
                    )
                except ValueError as exc:
                    raise ASPathError(f"bad AS_SET member in {text!r}") from exc
            else:
                try:
                    sequence.append(int(token))
                except ValueError as exc:
                    raise ASPathError(f"bad AS number {token!r}") from exc
        if sequence:
            segments.append(ASPathSegment(SegmentType.SEQUENCE, sequence))
        return cls(segments)

    # -- accessors -------------------------------------------------------

    @property
    def segments(self) -> Tuple[ASPathSegment, ...]:
        return self._segments

    def asns(self) -> Iterator[int]:
        """Yield every AS number on the path, in order of appearance."""
        for segment in self._segments:
            yield from segment

    def origin(self) -> OriginSet:
        """The origin of the announcement: the last path segment.

        A trailing AS_SET yields a non-unique :class:`OriginSet`, which
        the delegation-inference step (iii) will discard.
        """
        if not self._segments:
            raise ASPathError("empty AS path has no origin")
        last = self._segments[-1]
        if last.is_set:
            return OriginSet(last.asns, from_as_set=True)
        return OriginSet.single(last.asns[-1])

    # -- sanitization predicates ------------------------------------------

    def has_loop(self) -> bool:
        """True if any AS appears non-consecutively on the path.

        Consecutive repeats are legitimate path prepending and are not
        loops.  Any AS recurring after a different AS intervened is.
        AS_SET members count as single appearances at the set's spot.
        """
        seen = set()
        previous: "int | None" = None
        for segment in self._segments:
            if segment.is_set:
                for asn in set(segment.asns):
                    if asn in seen:
                        return True
                seen.update(segment.asns)
                previous = None
            else:
                for asn in segment.asns:
                    if asn == previous:
                        continue  # prepending
                    if asn in seen:
                        return True
                    seen.add(asn)
                    previous = asn
        return False

    def has_reserved_asn(self) -> bool:
        """True if any AS on the path is IANA-reserved."""
        return any(is_reserved_asn(asn) for asn in self.asns())

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        """Path length counted the BGP way: AS_SET counts as one hop."""
        length = 0
        for segment in self._segments:
            if segment.is_set:
                length += 1
            else:
                length += len(segment.asns)
        return length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        return hash(self._segments)

    def __str__(self) -> str:
        return " ".join(str(segment) for segment in self._segments)

    def __repr__(self) -> str:
        return f"ASPath.parse({str(self)!r})"
