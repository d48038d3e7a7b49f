"""Sorted-array longest-prefix-match kernel.

:class:`~repro.netbase.trie.PrefixTrie` is the *reference*
implementation of the three cover-query families (exact, covering,
covered): one pointer-chasing node per prefix bit, obviously correct,
O(32) per query.  On the hot per-day inference path that object soup
dominates the profile, so this module provides the same queries on a
*columnar* representation — one sorted ``array('Q')`` of packed
``(network << 6) | length`` keys plus a parallel value list:

- :func:`pack` / :func:`unpack` — the packed-key codec.  Sorting packed
  keys ascending is exactly the routing-table ``(network, length)``
  order :class:`~repro.netbase.prefix.IPv4Prefix` defines, which places
  every covering prefix before the prefixes it covers.
- :class:`SortedPrefixMap` — an immutable, trie-equivalent map built in
  one shot from items; ``longest_match`` / ``covering`` / ``covered``
  answer in O(L log n) where L is the number of *distinct* prefix
  lengths present (≤ 33, typically ~10).
- :func:`nearest_strict_covers` — for *every* entry of a sorted key
  array, the index of its most-specific strictly-covering entry,
  computed in one O(n) stack pass instead of n trie walks.  RPKI
  delegation extraction calls it; the per-day delegation kernel runs
  the same stack discipline inline, fused with its filters.

A hypothesis property suite (``tests/netbase/test_lpm_properties.py``)
pins the equivalence of every query family against the trie, including
/0 and /32 edge lengths and duplicate inserts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.netbase.prefix import ADDRESS_BITS, IPv4Prefix

V = TypeVar("V")

#: The typecodes every packed codec in the repo depends on, with the
#: byte widths their on-disk formats (v2 result quads, shard files)
#: assume.  ``array`` only guarantees *minimum*
#: sizes, so codecs must check before trusting ``tobytes``/``frombytes``
#: round-trips across platforms.
_CODEC_ITEMSIZES = (("B", 1), ("I", 4), ("Q", 8))


def require_codec_itemsizes() -> None:
    """Assert the ``array`` itemsizes the packed codecs rely on.

    Called once at import by every module with an on-disk packed
    format (:mod:`repro.delegation.runner`, :mod:`repro.store.shard`):
    a platform where ``array('I')``
    is not 4 bytes or ``array('Q')`` is not 8 would silently misparse
    every entry, so fail loudly instead.
    """
    for typecode, expected in _CODEC_ITEMSIZES:
        actual = array(typecode).itemsize
        if actual != expected:
            raise RuntimeError(
                f"unsupported platform: array({typecode!r}).itemsize is "
                f"{actual}, but the packed binary formats (cache, "
                f"journal, shard) require {expected} bytes; this "
                "platform cannot read or write them"
            )


#: Host-bit masks per prefix length: ``_HOST_BITS[l] = 2**(32-l) - 1``.
_HOST_BITS = tuple(
    (1 << (ADDRESS_BITS - length)) - 1
    for length in range(ADDRESS_BITS + 1)
)


def pack(network: int, length: int) -> int:
    """Pack ``(network, length)`` into one sortable integer key.

    Six low bits hold the length (0..32 needs them all once /32 plus
    the sort-sentinel headroom below is counted); sorting packed keys
    ascending equals sorting prefixes by ``(network, length)``.
    """
    return (network << 6) | length


def unpack(key: int) -> Tuple[int, int]:
    """Inverse of :func:`pack`."""
    return key >> 6, key & 0x3F


def broadcast_of(key: int) -> int:
    """Highest address covered by a packed key's prefix."""
    return (key >> 6) | _HOST_BITS[key & 0x3F]


def nearest_strict_covers(keys: "array") -> List[int]:
    """Most-specific strict cover for every entry of a sorted key array.

    ``keys`` must be sorted ascending (the :func:`pack` order) and
    duplicate-free.  Returns one index per entry — the position of the
    longest stored prefix that *strictly* covers it, or ``-1``.

    One stack pass: because CIDR blocks are either nested or disjoint
    and the sort places covering prefixes immediately before covered
    ones, the stack always holds the open nesting chain; the top is the
    nearest enclosing ancestor of the entry being visited.
    """
    host_bits = _HOST_BITS
    out = [-1] * len(keys)
    stack_ends: List[int] = []
    stack_idx: List[int] = []
    for i, key in enumerate(keys):
        network = key >> 6
        while stack_ends and stack_ends[-1] < network:
            stack_ends.pop()
            stack_idx.pop()
        if stack_idx:
            out[i] = stack_idx[-1]
        stack_ends.append(network | host_bits[key & 0x3F])
        stack_idx.append(i)
    return out


class SortedPrefixMap:
    """Immutable prefix → value map over packed sorted arrays.

    Query-equivalent to :class:`~repro.netbase.trie.PrefixTrie` (which
    stays the mutable reference implementation): ``longest_match``,
    ``covering`` and ``covered`` return/yield the same entries in the
    same order.  Built in one shot from ``(prefix, value)`` items;
    later duplicates win, exactly like repeated ``trie.insert`` calls.
    """

    __slots__ = ("_keys", "_values", "_lengths")

    def __init__(
        self, items: Iterable[Tuple[IPv4Prefix, V]] = ()
    ) -> None:
        staged = {}
        for prefix, value in items:
            staged[pack(prefix.network, prefix.length)] = value
        keys = array("Q", sorted(staged))
        self._keys = keys
        self._values: List[V] = [staged[key] for key in keys]
        # Distinct lengths present, ascending — the only mask widths a
        # cover query ever needs to probe.
        self._lengths: Tuple[int, ...] = tuple(
            sorted({key & 0x3F for key in keys})
        )

    @classmethod
    def from_packed(
        cls, keys: "array", values: List[V]
    ) -> "SortedPrefixMap":
        """Adopt pre-sorted, duplicate-free packed columns (no copy)."""
        instance = cls.__new__(cls)
        instance._keys = keys
        instance._values = values
        instance._lengths = tuple(sorted({key & 0x3F for key in keys}))
        return instance

    # -- exact lookup --------------------------------------------------

    def _find(self, key: int) -> int:
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return index
        return -1

    def get(
        self, prefix: IPv4Prefix, default: Optional[V] = None
    ) -> Optional[V]:
        index = self._find(pack(prefix.network, prefix.length))
        if index < 0:
            return default
        return self._values[index]

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return self._find(pack(prefix.network, prefix.length)) >= 0

    def __getitem__(self, prefix: IPv4Prefix) -> V:
        index = self._find(pack(prefix.network, prefix.length))
        if index < 0:
            raise KeyError(prefix)
        return self._values[index]

    # -- cover queries -------------------------------------------------

    def covering(
        self, prefix: IPv4Prefix
    ) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Stored entries covering ``prefix``, shortest first.

        A stored /l covers the query iff the query's network masked to
        l bits is stored at length l — one exact bisect per distinct
        stored length ≤ the query length.  The candidate lengths come
        straight from a ``bisect_right`` over the precomputed sorted
        ``_lengths`` array instead of a compare-and-break scan, so
        queries never even visit the longer stored lengths.
        """
        network = prefix.network
        length = prefix.length
        lengths = self._lengths
        for candidate in lengths[:bisect_right(lengths, length)]:
            masked = network & ~_HOST_BITS[candidate]
            index = self._find((masked << 6) | candidate)
            if index >= 0:
                yield IPv4Prefix(masked, candidate), self._values[index]

    def longest_match(
        self, prefix: IPv4Prefix
    ) -> Optional[Tuple[IPv4Prefix, V]]:
        """The most-specific stored entry covering ``prefix``.

        Like :meth:`covering`, the probe set is bounded by one
        ``bisect_right`` over the sorted distinct-length array — a
        map dense in long prefixes no longer pays a skip-comparison
        per stored length on every short-prefix lookup.
        """
        network = prefix.network
        length = prefix.length
        lengths = self._lengths
        for candidate in reversed(lengths[:bisect_right(lengths, length)]):
            masked = network & ~_HOST_BITS[candidate]
            index = self._find((masked << 6) | candidate)
            if index >= 0:
                return IPv4Prefix(masked, candidate), self._values[index]
        return None

    def covered(
        self, prefix: IPv4Prefix
    ) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Stored entries equal to or inside ``prefix``, sorted.

        Everything inside the block sits in one contiguous slice of the
        sorted keys; only equal-network entries with a *shorter* length
        can fall inside the slice without being covered, so a single
        length comparison filters them.
        """
        keys = self._keys
        length = prefix.length
        low = bisect_left(keys, prefix.network << 6)
        high = bisect_right(keys, (prefix.broadcast << 6) | 0x3F)
        for index in range(low, high):
            key = keys[index]
            key_length = key & 0x3F
            if key_length < length:
                continue
            yield IPv4Prefix(key >> 6, key_length), self._values[index]

    # -- iteration -----------------------------------------------------

    def items(self) -> Iterator[Tuple[IPv4Prefix, V]]:
        for index, key in enumerate(self._keys):
            yield IPv4Prefix(key >> 6, key & 0x3F), self._values[index]

    def keys(self) -> Iterator[IPv4Prefix]:
        for prefix, _value in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        return iter(self._values)

    def __iter__(self) -> Iterator[IPv4Prefix]:
        return self.keys()

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __repr__(self) -> str:
        return f"<SortedPrefixMap with {len(self._keys)} entries>"
