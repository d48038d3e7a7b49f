"""The bucket-of-prefixes free pool, kept as a test oracle.

:class:`repro.registry.pool.FreePool` keeps one sorted list of network
integers per prefix length.  This module keeps the implementation it
replaced, unchanged: one list of :class:`IPv4Prefix` objects per length,
re-sorted after every push and popped from the front.
``test_pool_properties.py`` drives both through random operation
sequences and requires the same answers and the same free blocks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import PoolExhaustedError
from repro.netbase.prefix import IPv4Prefix
from repro.netbase.prefixset import aggregate


class FreePool:
    """A pool of free IPv4 blocks supporting sized allocation.

    >>> pool = FreePool([IPv4Prefix.parse("185.0.0.0/8")])
    >>> str(pool.allocate(24))
    '185.0.0.0/24'
    >>> pool.available_addresses()
    16776960
    """

    __slots__ = ("_by_length",)

    def __init__(self, blocks: Optional[List[IPv4Prefix]] = None):
        # length -> blocks of that length, kept sorted (lowest address
        # first) so allocation order is deterministic.
        self._by_length: Dict[int, List[IPv4Prefix]] = {}
        for block in blocks or []:
            self.add(block)

    # -- mutation ------------------------------------------------------

    def add(self, block: IPv4Prefix) -> None:
        """Return ``block`` to the pool and merge buddies if possible."""
        bucket = self._by_length.setdefault(block.length, [])
        if block in bucket:
            raise ValueError(f"block already in pool: {block}")
        # Buddy merge: recursively coalesce with the sibling while free.
        while block.length > 0:
            sibling = block.sibling()
            siblings = self._by_length.get(block.length, [])
            if sibling in siblings:
                siblings.remove(sibling)
                block = block.supernet()
            else:
                break
        self._by_length.setdefault(block.length, []).append(block)
        self._by_length[block.length].sort()

    def allocate(self, length: int) -> IPv4Prefix:
        """Allocate one block with the given prefix length.

        Picks the best-fit free block (the longest length ≤ requested)
        and splits it down to size; among equal fits the lowest network
        address wins, making pools fully deterministic.

        Raises :class:`~repro.errors.PoolExhaustedError` if no free
        block of length ≤ ``length`` exists.
        """
        source_length = None
        for candidate in range(length, -1, -1):
            if self._by_length.get(candidate):
                source_length = candidate
                break
        if source_length is None:
            raise PoolExhaustedError(
                f"no free block can satisfy a /{length} request"
            )
        block = self._by_length[source_length].pop(0)
        # Split down, returning the high halves to the pool.
        while block.length < length:
            low, high = block.halves()
            self._by_length.setdefault(high.length, []).append(high)
            self._by_length[high.length].sort()
            block = low
        return block

    def allocate_specific(self, block: IPv4Prefix) -> IPv4Prefix:
        """Carve out exactly ``block`` from the pool.

        Used by the world generator to hand out pre-planned blocks.
        Raises :class:`PoolExhaustedError` if the block is not fully
        free.
        """
        for length in range(block.length, -1, -1):
            bucket = self._by_length.get(length, [])
            for candidate in bucket:
                if candidate.covers(block):
                    bucket.remove(candidate)
                    # Split candidate around `block`, returning remainder.
                    current = candidate
                    while current.length < block.length:
                        low, high = current.halves()
                        if low.covers(block):
                            self.add(high)
                            current = low
                        else:
                            self.add(low)
                            current = high
                    return current
        raise PoolExhaustedError(f"block not free in pool: {block}")

    # -- queries ----------------------------------------------------------

    def can_allocate(self, length: int) -> bool:
        """True if :meth:`allocate` with ``length`` would succeed."""
        return any(
            self._by_length.get(candidate)
            for candidate in range(length, -1, -1)
        )

    def available_addresses(self) -> int:
        """Total number of free addresses in the pool."""
        return sum(
            prefix.num_addresses
            for bucket in self._by_length.values()
            for prefix in bucket
        )

    def blocks(self) -> Iterator[IPv4Prefix]:
        """Iterate all free blocks, sorted."""
        collected = [
            prefix
            for bucket in self._by_length.values()
            for prefix in bucket
        ]
        yield from sorted(collected)

    def aggregated(self) -> List[IPv4Prefix]:
        """The free space as a minimal prefix list."""
        return aggregate(self.blocks())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_length.values())

    def __bool__(self) -> bool:
        return any(self._by_length.values())

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        """True if ``prefix`` is fully contained in free space."""
        for length in range(prefix.length, -1, -1):
            for candidate in self._by_length.get(length, []):
                if candidate.covers(prefix):
                    return True
        return False

    def __repr__(self) -> str:
        return (
            f"<FreePool {len(self)} blocks, "
            f"{self.available_addresses()} addresses>"
        )
