"""Immutable IPv4 prefix (CIDR block) value type.

The whole library manipulates address space through
:class:`IPv4Prefix`.  The class is deliberately implemented from first
principles (no :mod:`ipaddress` dependency) so the representation is a
compact ``(network_int, length)`` pair: hashable, totally ordered, and
cheap enough to use as a dictionary key in per-day routing tables with
hundreds of thousands of entries.

Ordering follows the conventional routing-table sort: by network address
first, then by prefix length (less-specific first).  That makes a sorted
list of prefixes place every covering prefix immediately before the
prefixes it covers, which several algorithms in :mod:`repro.delegation`
exploit.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

from repro.errors import PrefixError

#: Total number of bits in an IPv4 address.
ADDRESS_BITS = 32

#: Largest representable IPv4 address as an integer (255.255.255.255).
MAX_ADDRESS = (1 << ADDRESS_BITS) - 1


def parse_address(text: str) -> int:
    """Parse dotted-quad ``text`` into an address integer.

    Raises :class:`~repro.errors.PrefixError` for anything that is not a
    canonical four-octet dotted quad (no octal, no shorthand forms).
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise PrefixError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_address(value: int) -> str:
    """Format address integer ``value`` as a dotted quad."""
    if not 0 <= value <= MAX_ADDRESS:
        raise PrefixError(f"address integer out of range: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def _mask(length: int) -> int:
    """Return the network mask for a prefix of ``length`` bits."""
    if length == 0:
        return 0
    return (MAX_ADDRESS << (ADDRESS_BITS - length)) & MAX_ADDRESS


class IPv4Prefix:
    """An immutable IPv4 CIDR prefix such as ``192.0.2.0/24``.

    Instances are canonical: the stored network address always has all
    host bits zeroed; constructing from a non-canonical address raises
    unless ``strict=False`` is passed, in which case host bits are
    silently masked off.

    >>> p = IPv4Prefix.parse("192.0.2.0/24")
    >>> p.length, p.num_addresses
    (24, 256)
    >>> IPv4Prefix.parse("192.0.2.128/25") in p
    True
    """

    __slots__ = ("_network", "_length", "_hash")

    def __init__(self, network: int, length: int, *, strict: bool = True):
        if not 0 <= length <= ADDRESS_BITS:
            raise PrefixError(f"prefix length out of range: {length}")
        if not 0 <= network <= MAX_ADDRESS:
            raise PrefixError(f"network address out of range: {network}")
        masked = network & _mask(length)
        if strict and masked != network:
            raise PrefixError(
                f"{format_address(network)}/{length} has host bits set"
            )
        object.__setattr__(self, "_network", masked)
        object.__setattr__(self, "_length", length)
        # Prefixes spend their lives as dict/set keys (routing tables,
        # delegation timelines), so the hash is precomputed once.
        object.__setattr__(self, "_hash", hash((masked, length)))

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str, *, strict: bool = True) -> "IPv4Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, meaning ``/32``)."""
        text = text.strip()
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise PrefixError(f"bad prefix length in {text!r}")
            length = int(len_text)
        else:
            addr_text, length = text, ADDRESS_BITS
        return cls(parse_address(addr_text), length, strict=strict)

    @classmethod
    def from_range(cls, first: int, last: int) -> List["IPv4Prefix"]:
        """Return the minimal list of prefixes covering ``[first, last]``.

        This mirrors how RIR WHOIS ``inetnum`` ranges map onto CIDR
        blocks.  The result is sorted by network address.
        """
        if first > last:
            raise PrefixError(f"empty range: {first} > {last}")
        if first < 0 or last > MAX_ADDRESS:
            raise PrefixError("range outside IPv4 address space")
        prefixes: List[IPv4Prefix] = []
        while first <= last:
            # The largest block starting at `first` is limited both by
            # alignment of `first` and by the remaining span size.
            max_len_by_align = 0
            if first != 0:
                max_len_by_align = ADDRESS_BITS - (
                    (first & -first).bit_length() - 1
                )
            span = last - first + 1
            max_len_by_span = ADDRESS_BITS - (span.bit_length() - 1)
            length = max(max_len_by_align, max_len_by_span)
            prefixes.append(cls(first, length))
            first += 1 << (ADDRESS_BITS - length)
        return prefixes

    # -- basic accessors ----------------------------------------------

    @property
    def network(self) -> int:
        """Network address as an integer (host bits zero)."""
        return self._network

    @property
    def length(self) -> int:
        """Prefix length in bits (0..32)."""
        return self._length

    @property
    def broadcast(self) -> int:
        """Highest address in the block, as an integer."""
        return self._network | (~_mask(self._length) & MAX_ADDRESS)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered (2**(32 - length))."""
        return 1 << (ADDRESS_BITS - self._length)

    # -- relations ----------------------------------------------------

    def contains_address(self, address: int) -> bool:
        """True if integer ``address`` falls inside this prefix."""
        return (address & _mask(self._length)) == self._network

    def covers(self, other: "IPv4Prefix") -> bool:
        """True if ``other`` is equal to or more specific than self."""
        return (
            other._length >= self._length
            and (other._network & _mask(self._length)) == self._network
        )

    def overlaps(self, other: "IPv4Prefix") -> bool:
        """True if the two blocks share any address."""
        return self.covers(other) or other.covers(self)

    # -- derivation ---------------------------------------------------

    def supernet(self, new_length: Union[int, None] = None) -> "IPv4Prefix":
        """Return the covering prefix of ``new_length`` (default: one bit
        shorter)."""
        if new_length is None:
            new_length = self._length - 1
        if not 0 <= new_length <= self._length:
            raise PrefixError(
                f"cannot widen /{self._length} to /{new_length}"
            )
        return IPv4Prefix(self._network & _mask(new_length), new_length)

    def subnets(self, new_length: Union[int, None] = None) -> Iterator["IPv4Prefix"]:
        """Yield the subnets of ``new_length`` (default: one bit longer)."""
        if new_length is None:
            new_length = self._length + 1
        if not self._length <= new_length <= ADDRESS_BITS:
            raise PrefixError(
                f"cannot split /{self._length} into /{new_length}"
            )
        step = 1 << (ADDRESS_BITS - new_length)
        for network in range(self._network, self.broadcast + 1, step):
            yield IPv4Prefix(network, new_length)

    def halves(self) -> Tuple["IPv4Prefix", "IPv4Prefix"]:
        """Split into the two subnets one bit longer."""
        low, high = self.subnets()
        return low, high

    def sibling(self) -> "IPv4Prefix":
        """Return the other half of this prefix's immediate supernet."""
        if self._length == 0:
            raise PrefixError("0.0.0.0/0 has no sibling")
        flip = 1 << (ADDRESS_BITS - self._length)
        return IPv4Prefix(self._network ^ flip, self._length)

    def bit(self, index: int) -> int:
        """Return bit ``index`` (0 = most significant) of the network."""
        if not 0 <= index < ADDRESS_BITS:
            raise PrefixError(f"bit index out of range: {index}")
        return (self._network >> (ADDRESS_BITS - 1 - index)) & 1

    # -- dunder protocol ----------------------------------------------

    def __contains__(self, item: Union["IPv4Prefix", int]) -> bool:
        if isinstance(item, IPv4Prefix):
            return self.covers(item)
        return self.contains_address(int(item))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IPv4Prefix):
            return NotImplemented
        return (
            self._network == other._network and self._length == other._length
        )

    def __lt__(self, other: "IPv4Prefix") -> bool:
        if not isinstance(other, IPv4Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __le__(self, other: "IPv4Prefix") -> bool:
        if not isinstance(other, IPv4Prefix):
            return NotImplemented
        return (self._network, self._length) <= (other._network, other._length)

    def __gt__(self, other: "IPv4Prefix") -> bool:
        result = self.__le__(other)
        if result is NotImplemented:
            return result
        return not result

    def __ge__(self, other: "IPv4Prefix") -> bool:
        result = self.__lt__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IPv4Prefix.parse({str(self)!r})"

    def __str__(self) -> str:
        return f"{format_address(self._network)}/{self._length}"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IPv4Prefix is immutable")

    def __reduce__(self):
        # The default slots-based pickling restores state via
        # ``setattr``, which the immutability guard above rejects;
        # rebuild through __init__ instead (the stored network is
        # already canonical, so strict mode is safe).  Without this,
        # prefixes cannot cross process boundaries — which the
        # parallel runner and rule sweeps rely on.
        return (self.__class__, (self._network, self._length))
