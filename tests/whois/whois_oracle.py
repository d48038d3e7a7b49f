"""The trie-indexed WHOIS database, kept as a test oracle.

:class:`repro.whois.database.WhoisDatabase` indexes inetnums in a dict
keyed by the packed primary prefix.  This module keeps the
implementation it replaced, unchanged: a :class:`PrefixTrie` of
per-primary-prefix buckets, walked bit by bit, and the search
``InetnumObject.primary_prefix`` used to run (:func:`primary_prefix`).
``test_database_properties.py`` drives both through random adds,
removes and hierarchy queries and requires the same answers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ObjectNotFoundError, WhoisError
from repro.netbase.prefix import IPv4Prefix
from repro.netbase.trie import PrefixTrie
from repro.whois.inetnum import InetnumObject, InetnumStatus, OrgObject


def primary_prefix(obj: InetnumObject) -> IPv4Prefix:
    """The smallest prefix containing ``obj``'s range, by search."""
    prefixes = obj.prefixes()
    if len(prefixes) == 1:
        return prefixes[0]
    length = 32
    while length > 0:
        candidate = IPv4Prefix(obj.first, length, strict=False)
        if candidate.contains_address(obj.last):
            return candidate
        length -= 1
    return IPv4Prefix(0, 0)


class WhoisDatabase:
    """In-memory WHOIS database for one RIR region."""

    def __init__(self, source: str = "RIPE"):
        self._source = source
        self._inetnums: Dict[Tuple[int, int], InetnumObject] = {}
        self._orgs: Dict[str, OrgObject] = {}
        # Trie of lists: several non-aligned ranges can share a primary
        # prefix.
        self._index: PrefixTrie[List[InetnumObject]] = PrefixTrie()

    @property
    def source(self) -> str:
        return self._source

    # -- organisations ----------------------------------------------------

    def add_org(self, org: OrgObject) -> None:
        if org.handle in self._orgs:
            raise WhoisError(f"duplicate organisation: {org.handle}")
        self._orgs[org.handle] = org

    def org(self, handle: str) -> OrgObject:
        try:
            return self._orgs[handle]
        except KeyError:
            raise ObjectNotFoundError(handle) from None

    def orgs(self) -> List[OrgObject]:
        return sorted(self._orgs.values(), key=lambda o: o.handle)

    # -- inetnums ------------------------------------------------------------

    def add_inetnum(self, obj: InetnumObject) -> None:
        """Insert an ``inetnum``; exact-range duplicates are rejected."""
        key = obj.key()
        if key in self._inetnums:
            raise WhoisError(f"duplicate inetnum: {obj.range_text()}")
        self._inetnums[key] = obj
        primary = primary_prefix(obj)
        bucket = self._index.get(primary)
        if bucket is None:
            bucket = []
            self._index.insert(primary, bucket)
        bucket.append(obj)

    def remove_inetnum(self, obj: InetnumObject) -> None:
        key = obj.key()
        if key not in self._inetnums:
            raise ObjectNotFoundError(obj.range_text())
        del self._inetnums[key]
        primary = primary_prefix(obj)
        bucket = self._index.get(primary)
        if bucket is not None:
            bucket.remove(obj)
            if not bucket:
                self._index.delete(primary)

    def inetnum(self, first: int, last: int) -> InetnumObject:
        try:
            return self._inetnums[(first, last)]
        except KeyError:
            raise ObjectNotFoundError(f"{first}-{last}") from None

    def inetnums(self) -> Iterator[InetnumObject]:
        """All inetnums, range-sorted (outermost first on ties)."""
        yield from sorted(
            self._inetnums.values(), key=lambda o: (o.first, -o.last)
        )

    def by_status(self, status: InetnumStatus) -> List[InetnumObject]:
        """All inetnums with the given ``status:`` value."""
        return [obj for obj in self.inetnums() if obj.status is status]

    def __len__(self) -> int:
        return len(self._inetnums)

    def __contains__(self, obj: InetnumObject) -> bool:
        return obj.key() in self._inetnums

    # -- hierarchy ---------------------------------------------------------------

    def parent_of(self, obj: InetnumObject) -> Optional[InetnumObject]:
        """The immediate parent: smallest strictly-containing range."""
        best: Optional[InetnumObject] = None
        for _prefix, bucket in self._index.covering(primary_prefix(obj)):
            for candidate in bucket:
                if not candidate.properly_contains(obj):
                    continue
                if best is None or best.contains(candidate):
                    best = candidate
        return best

    def children_of(self, obj: InetnumObject) -> List[InetnumObject]:
        """Immediate children of ``obj`` (ranges directly below it)."""
        children: List[InetnumObject] = []
        for _prefix, bucket in self._index.covered(primary_prefix(obj)):
            for candidate in bucket:
                if candidate is obj or not obj.properly_contains(candidate):
                    continue
                children.append(candidate)
        # Keep only those whose immediate parent is obj.
        return [
            child for child in children if self.parent_of(child) == obj
        ]

    def find_exact_prefix(self, prefix: IPv4Prefix) -> Optional[InetnumObject]:
        """The inetnum whose range equals ``prefix``, if any."""
        return self._inetnums.get((prefix.network, prefix.broadcast))

    def most_specific_containing(
        self, prefix: IPv4Prefix
    ) -> Optional[InetnumObject]:
        """Smallest inetnum whose range covers all of ``prefix``."""
        best: Optional[InetnumObject] = None
        for _stored, bucket in self._index.covering(prefix):
            for candidate in bucket:
                if not (
                    candidate.first <= prefix.network
                    and prefix.broadcast <= candidate.last
                ):
                    continue
                if best is None or best.contains(candidate):
                    best = candidate
        return best

    def __repr__(self) -> str:
        return (
            f"<WhoisDatabase {self._source}: {len(self._inetnums)} inetnums, "
            f"{len(self._orgs)} orgs>"
        )
