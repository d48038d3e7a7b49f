"""The WHOIS database: object store with hierarchy queries.

Stores ``inetnum`` and ``organisation`` objects and answers the
hierarchy question the RDAP pipeline needs: *which stored object is the
immediate parent of this range?*  Parenthood follows registry
convention — the smallest strictly-containing range wins.

The hierarchy index is a dict from each range's packed primary prefix,
``(network << 6) | length``, to the inetnums that share it, in
insertion order.  Covering queries probe the query's masked keys
shortest first; covered queries bisect the sorted key list, whose
``(network, length)`` order is a pre-order walk of the prefix tree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ObjectNotFoundError, WhoisError
from repro.netbase.prefix import ADDRESS_BITS, IPv4Prefix
from repro.whois.inetnum import (
    InetnumObject,
    InetnumStatus,
    OrgObject,
    primary_key,
)


class WhoisDatabase:
    """In-memory WHOIS database for one RIR region."""

    def __init__(self, source: str = "RIPE"):
        self._source = source
        self._inetnums: Dict[Tuple[int, int], InetnumObject] = {}
        self._orgs: Dict[str, OrgObject] = {}
        # Packed primary prefix -> inetnums: several non-aligned ranges
        # can share a primary prefix.
        self._index: Dict[int, List[InetnumObject]] = {}
        # sorted(self._index), rebuilt on demand after a key comes or
        # goes.
        self._keys: Optional[List[int]] = None

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
        primary = primary_key(obj.first, obj.last)
        bucket = self._index.get(primary)
        if bucket is None:
            self._index[primary] = [obj]
            self._keys = None
        else:
            bucket.append(obj)

    def remove_inetnum(self, obj: InetnumObject) -> None:
        """Remove the stored inetnum with ``obj``'s range."""
        stored = self._inetnums.pop(obj.key(), None)
        if stored is None:
            raise ObjectNotFoundError(obj.range_text())
        primary = primary_key(stored.first, stored.last)
        bucket = self._index[primary]
        bucket.remove(stored)
        if not bucket:
            del self._index[primary]
            self._keys = None

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

    def _covering(self, network: int, length: int) -> Iterator[InetnumObject]:
        """Inetnums whose primary prefix covers ``network/length``,
        shortest primary prefix first."""
        index = self._index
        for depth in range(length + 1):
            host_bits = ADDRESS_BITS - depth
            bucket = index.get(
                ((network >> host_bits) << (host_bits + 6)) | depth
            )
            if bucket:
                yield from bucket

    def parent_of(self, obj: InetnumObject) -> Optional[InetnumObject]:
        """The immediate parent: smallest strictly-containing range."""
        primary = primary_key(obj.first, obj.last)
        best: Optional[InetnumObject] = None
        for candidate in self._covering(primary >> 6, primary & 63):
            if not candidate.properly_contains(obj):
                continue
            if best is None or best.contains(candidate):
                best = candidate
        return best

    def children_of(self, obj: InetnumObject) -> List[InetnumObject]:
        """Immediate children of ``obj`` (ranges directly below it)."""
        if self._keys is None:
            self._keys = sorted(self._index)
        keys = self._keys
        primary = primary_key(obj.first, obj.last)
        host_bits = ADDRESS_BITS - (primary & 63)
        # Every key from the primary prefix itself to its last /32
        # lies inside it.
        last = (((primary >> 6) | ((1 << host_bits) - 1)) << 6) | 63
        children: List[InetnumObject] = []
        for key in keys[bisect_left(keys, primary):bisect_right(keys, last)]:
            for candidate in self._index[key]:
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
        first, last = prefix.network, prefix.broadcast
        best: Optional[InetnumObject] = None
        for candidate in self._covering(first, prefix.length):
            if not (candidate.first <= first and last <= candidate.last):
                continue
            if best is None or best.contains(candidate):
                best = candidate
        return best

    def __repr__(self) -> str:
        return (
            f"<WhoisDatabase {self._source}: {len(self._inetnums)} inetnums, "
            f"{len(self._orgs)} orgs>"
        )
