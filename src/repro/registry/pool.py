"""Free-pool management with buddy-style block splitting.

An RIR's unallocated pool is a set of CIDR blocks.  Allocation requests
ask for a prefix *length*; the pool hands out the smallest suitable
block, splitting a larger one if necessary (exactly how registries carve
/22s out of a reserved /8).  Returned space is re-merged opportunistically
via prefix aggregation, so a pool that gets everything back converges to
its original blocks.

Free blocks are kept as plain network integers, one sorted list per
prefix length; :class:`IPv4Prefix` objects are built only where a block
crosses the API.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, List, Optional

from repro.errors import PoolExhaustedError
from repro.netbase.prefix import ADDRESS_BITS, IPv4Prefix, _mask
from repro.netbase.prefixset import aggregate


class FreePool:
    """A pool of free IPv4 blocks supporting sized allocation.

    >>> pool = FreePool([IPv4Prefix.parse("185.0.0.0/8")])
    >>> str(pool.allocate(24))
    '185.0.0.0/24'
    >>> pool.available_addresses()
    16776960
    """

    __slots__ = ("_free",)

    def __init__(self, blocks: Optional[List[IPv4Prefix]] = None):
        # _free[length]: networks of the free /length blocks, ascending
        # (lowest address first) so allocation order is deterministic.
        self._free: List[List[int]] = [[] for _ in range(ADDRESS_BITS + 1)]
        for block in blocks or []:
            self.add(block)

    def copy(self) -> "FreePool":
        """An independent pool holding the same free blocks."""
        twin = FreePool()
        twin._free = [list(bucket) for bucket in self._free]
        return twin

    # -- mutation ------------------------------------------------------

    def add(self, block: IPv4Prefix) -> None:
        """Return ``block`` to the pool and merge buddies if possible."""
        self._add(block.network, block.length)

    def _add(self, network: int, length: int) -> None:
        free = self._free
        if _find(free[length], network) is not None:
            raise ValueError(
                f"block already in pool: {IPv4Prefix(network, length)}"
            )
        # Buddy merge: recursively coalesce with the sibling while free.
        while length > 0:
            bucket = free[length]
            index = _find(bucket, network ^ (1 << (ADDRESS_BITS - length)))
            if index is None:
                break
            del bucket[index]
            length -= 1
            network &= ~(1 << (ADDRESS_BITS - 1 - length))
        insort(free[length], network)

    def allocate(self, length: int) -> IPv4Prefix:
        """Allocate one block with the given prefix length.

        Picks the best-fit free block (the longest length ≤ requested)
        and splits it down to size; among equal fits the lowest network
        address wins, making pools fully deterministic.

        Raises :class:`~repro.errors.PoolExhaustedError` if no free
        block of length ≤ ``length`` exists.
        """
        free = self._free
        for source in range(length, -1, -1):
            if free[source]:
                break
        else:
            raise PoolExhaustedError(
                f"no free block can satisfy a /{length} request"
            )
        network = free[source].pop(0)
        # Split down, returning the high halves to the pool unmerged.
        for half in range(source + 1, length + 1):
            insort(free[half], network | (1 << (ADDRESS_BITS - half)))
        return IPv4Prefix(network, length)

    def allocate_specific(self, block: IPv4Prefix) -> IPv4Prefix:
        """Carve out exactly ``block`` from the pool.

        Used by the world generator to hand out pre-planned blocks.
        Raises :class:`PoolExhaustedError` if the block is not fully
        free.
        """
        network, length = block.network, block.length
        for source in range(length, -1, -1):
            bucket = self._free[source]
            index = _find(bucket, network & _mask(source))
            if index is None:
                continue
            del bucket[index]
            # Split around `block`, returning each other half (merged).
            for half in range(source + 1, length + 1):
                self._add(
                    (network & _mask(half)) ^ (1 << (ADDRESS_BITS - half)),
                    half,
                )
            return IPv4Prefix(network, length)
        raise PoolExhaustedError(f"block not free in pool: {block}")

    # -- queries ----------------------------------------------------------

    def can_allocate(self, length: int) -> bool:
        """True if :meth:`allocate` with ``length`` would succeed."""
        return length >= 0 and any(self._free[: length + 1])

    def available_addresses(self) -> int:
        """Total number of free addresses in the pool."""
        return sum(
            len(bucket) << (ADDRESS_BITS - length)
            for length, bucket in enumerate(self._free)
        )

    def blocks(self) -> Iterator[IPv4Prefix]:
        """Iterate all free blocks, sorted."""
        packed = sorted(
            (network << 6) | length
            for length, bucket in enumerate(self._free)
            for network in bucket
        )
        for key in packed:
            yield IPv4Prefix(key >> 6, key & 63)

    def aggregated(self) -> List[IPv4Prefix]:
        """The free space as a minimal prefix list."""
        return aggregate(self.blocks())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._free)

    def __bool__(self) -> bool:
        return any(self._free)

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        """True if ``prefix`` is fully contained in free space."""
        network = prefix.network
        return any(
            _find(self._free[length], network & _mask(length)) is not None
            for length in range(prefix.length, -1, -1)
        )

    def __repr__(self) -> str:
        return (
            f"<FreePool {len(self)} blocks, "
            f"{self.available_addresses()} addresses>"
        )


def _find(bucket: List[int], network: int) -> Optional[int]:
    """Index of ``network`` in the sorted ``bucket``, or None."""
    index = bisect_left(bucket, network)
    if index < len(bucket) and bucket[index] == network:
        return index
    return None
