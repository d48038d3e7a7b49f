"""Binary radix trie keyed by IPv4 prefixes.

The trie is the workhorse behind routing-table lookups, bogon checks
and prefix-set queries.  It maps
:class:`~repro.netbase.prefix.IPv4Prefix` keys to arbitrary values and
supports the three query families the reproduction needs:

- exact lookup (``get`` / ``__contains__``),
- *covering* entries — every stored prefix that covers a query prefix,
  most-specific last, which doubles as longest-prefix match, and
- *covered* entries — every stored prefix inside a query prefix, used to
  find the more-specifics of a delegator's block.

The implementation is a plain (non-compressed) binary trie: for the
prefix lengths that dominate our workloads (/16../24) paths are short,
and the simple structure keeps inserts and deletes obviously correct.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.netbase.prefix import ADDRESS_BITS, IPv4Prefix

V = TypeVar("V")

_MISSING = object()


class _Node(Generic[V]):
    """One trie node; ``value`` is ``_MISSING`` when no entry ends here."""

    __slots__ = ("zero", "one", "value")

    def __init__(self) -> None:
        self.zero: Optional["_Node[V]"] = None
        self.one: Optional["_Node[V]"] = None
        self.value: object = _MISSING


class PrefixTrie(Generic[V]):
    """Mutable mapping from :class:`IPv4Prefix` to values.

    >>> trie = PrefixTrie()
    >>> trie[IPv4Prefix.parse("10.0.0.0/8")] = "rfc1918"
    >>> trie.longest_match(IPv4Prefix.parse("10.1.2.0/24"))
    (IPv4Prefix('10.0.0.0/8'), 'rfc1918')
    """

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    # -- path helpers --------------------------------------------------

    def _descend(self, prefix: IPv4Prefix, create: bool) -> Optional[_Node[V]]:
        """Walk to the node for ``prefix``, optionally creating the path."""
        node = self._root
        network, length = prefix.network, prefix.length
        for depth in range(length):
            bit = (network >> (ADDRESS_BITS - 1 - depth)) & 1
            child = node.one if bit else node.zero
            if child is None:
                if not create:
                    return None
                child = _Node()
                if bit:
                    node.one = child
                else:
                    node.zero = child
            node = child
        return node

    # -- mutation -------------------------------------------------------

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or replace the entry for ``prefix``."""
        node = self._descend(prefix, create=True)
        assert node is not None
        if node.value is _MISSING:
            self._size += 1
        node.value = value

    def __setitem__(self, prefix: IPv4Prefix, value: V) -> None:
        self.insert(prefix, value)

    def delete(self, prefix: IPv4Prefix) -> bool:
        """Remove the entry for ``prefix``; return True if it existed.

        Empty branches left behind are pruned so long-lived tries (e.g.
        per-day RIB snapshots reusing one trie) do not leak nodes.
        """
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        network, length = prefix.network, prefix.length
        for depth in range(length):
            bit = (network >> (ADDRESS_BITS - 1 - depth)) & 1
            child = node.one if bit else node.zero
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if node.value is _MISSING:
            return False
        node.value = _MISSING
        self._size -= 1
        # Prune now-empty leaf chain.
        while path and node.value is _MISSING and node.zero is None and node.one is None:
            parent, bit = path.pop()
            if bit:
                parent.one = None
            else:
                parent.zero = None
            node = parent
        return True

    def clear(self) -> None:
        """Drop every entry."""
        self._root = _Node()
        self._size = 0

    # -- exact lookup ----------------------------------------------------

    def get(self, prefix: IPv4Prefix, default: Optional[V] = None) -> Optional[V]:
        """Return the value stored exactly at ``prefix`` or ``default``."""
        node = self._descend(prefix, create=False)
        if node is None or node.value is _MISSING:
            return default
        return node.value  # type: ignore[return-value]

    def __getitem__(self, prefix: IPv4Prefix) -> V:
        node = self._descend(prefix, create=False)
        if node is None or node.value is _MISSING:
            raise KeyError(prefix)
        return node.value  # type: ignore[return-value]

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        node = self._descend(prefix, create=False)
        return node is not None and node.value is not _MISSING

    # -- cover queries ----------------------------------------------------

    def covering(self, prefix: IPv4Prefix) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Yield stored entries that cover ``prefix``, shortest first.

        Includes an exact-match entry (it trivially covers itself).
        """
        node: Optional[_Node[V]] = self._root
        network = prefix.network
        for depth in range(prefix.length + 1):
            if node is None:
                return
            if node.value is not _MISSING:
                covering_net = network & (
                    ((1 << depth) - 1) << (ADDRESS_BITS - depth)
                    if depth
                    else 0
                )
                yield IPv4Prefix(covering_net, depth), node.value  # type: ignore[misc]
            if depth == prefix.length:
                return
            bit = (network >> (ADDRESS_BITS - 1 - depth)) & 1
            node = node.one if bit else node.zero

    def longest_match(
        self, prefix: IPv4Prefix
    ) -> Optional[Tuple[IPv4Prefix, V]]:
        """Return the most-specific stored entry covering ``prefix``."""
        best: Optional[Tuple[IPv4Prefix, V]] = None
        for entry in self.covering(prefix):
            best = entry
        return best

    def covered(self, prefix: IPv4Prefix) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Yield stored entries equal to or inside ``prefix``, sorted."""
        start = self._descend(prefix, create=False)
        if start is None:
            return
        yield from self._walk(start, prefix.network, prefix.length)

    def _walk(
        self, node: _Node[V], network: int, depth: int
    ) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Depth-first walk in address order (0-branch before 1-branch)."""
        stack: List[Tuple[_Node[V], int, int]] = [(node, network, depth)]
        while stack:
            node, network, depth = stack.pop()
            if node.value is not _MISSING:
                yield IPv4Prefix(network, depth), node.value  # type: ignore[misc]
            # Push the 1-branch first so the 0-branch is visited first.
            if node.one is not None:
                bit_value = 1 << (ADDRESS_BITS - 1 - depth)
                stack.append((node.one, network | bit_value, depth + 1))
            if node.zero is not None:
                stack.append((node.zero, network, depth + 1))

    # -- iteration ---------------------------------------------------------

    def items(self) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Iterate all entries in (network, length) order."""
        yield from self._walk(self._root, 0, 0)

    def keys(self) -> Iterator[IPv4Prefix]:
        for prefix, _value in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        for _prefix, value in self.items():
            yield value

    def __iter__(self) -> Iterator[IPv4Prefix]:
        return self.keys()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __repr__(self) -> str:
        return f"<PrefixTrie with {self._size} entries>"
