"""Per-monitor routing tables (RIBs) and the columnar day table.

A :class:`RoutingTable` tracks what one monitor currently routes.  The
collector system uses RIBs to derive update streams (announce on
appearance/path change, withdraw on disappearance) between consecutive
daily snapshots — the same RIB+updates structure the paper consumes
from RIPE RIS / Route Views / Isolario.

A :class:`PairTable` is the *columnar* representation of one day's
aggregated (prefix, origin) pairs: parallel packed arrays instead of a
dict of per-record objects.  It carries exactly the facts the
delegation-inference filters consume — packed prefix key, sole origin,
origin-uniqueness, monitor count — so a whole day can be filtered with
tight loops over flat integer columns (the ``columnar`` kernel in
:mod:`repro.delegation.inference`).
"""

from __future__ import annotations

import datetime
import sys
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bgp.message import RouteRecord, Withdrawal
from repro.netbase.aspath import ASPath
from repro.netbase.lpm import pack, unpack
from repro.netbase.prefix import IPv4Prefix
from repro.netbase.trie import PrefixTrie

#: Flag bit: the pair's origin is a plain single AS (not AS_SET/MOAS).
UNIQUE_ORIGIN = 0x01

#: Bytes per pair in the packed column layout: key u64 + origin u64 +
#: monitor count u32 + flags u8.  ``PairTable.to_bytes`` emits the four
#: columns back-to-back in that order (widest first, so every column
#: starts aligned whenever the buffer itself is 8-byte aligned), all
#: little-endian — the exact on-disk layout of a shard file's body.
ROW_BYTES = 8 + 8 + 4 + 1


class PairTable:
    """One day of (prefix, origin) pairs as parallel packed arrays.

    Columns, all the same length, sorted by packed prefix key:

    - ``keys`` — ``array('Q')`` of ``(network << 6) | length``
      (:func:`repro.netbase.lpm.pack` order, so covering prefixes sort
      immediately before the prefixes they cover),
    - ``origins`` — ``array('Q')`` of the sole origin AS (meaningful
      only when the ``UNIQUE_ORIGIN`` flag is set; 0 otherwise),
    - ``flags`` — ``array('B')``; bit 0 = unique origin,
    - ``monitor_counts`` — ``array('I')`` of distinct monitors that
      saw the pair (the visibility-filter numerator).

    Pairs whose origin is an AS_SET or MOAS carry no member detail —
    inference step (iii) drops them unconditionally, so only the
    uniqueness verdict survives aggregation.

    Columns are normally ``array`` objects, but every consumer only
    indexes, iterates, slices and bisects them — so a table can also be
    backed by cast :class:`memoryview` columns over a shard file's
    mapped bytes (:meth:`from_buffer`), making a load zero-copy.  Such
    views are read-only and not picklable; :meth:`materialize` copies
    them back into real arrays when a table must cross a process
    boundary.
    """

    __slots__ = ("keys", "origins", "flags", "monitor_counts")

    #: Process-wide count of buffer-backed tables copied out into real
    #: arrays by :meth:`materialize`.  Every copy-out costs one full
    #: table of heap (and, on a fan-in path, one pickled table crossing
    #: a process boundary), so the runner surfaces this in manifests as
    #: the ``pairtable.materialized`` counter — a regression from the
    #: zero-copy fan-in back to pickled hand-backs shows up in
    #: ``repro history diff`` instead of only in the memory profile.
    materialize_count = 0

    def __init__(
        self,
        keys: "array",
        origins: "array",
        flags: "array",
        monitor_counts: "array",
    ) -> None:
        if not (
            len(keys) == len(origins) == len(flags) == len(monitor_counts)
        ):
            raise ValueError("PairTable columns must have equal length")
        self.keys = keys
        self.origins = origins
        self.flags = flags
        self.monitor_counts = monitor_counts

    @classmethod
    def from_aggregate(
        cls, aggregate: Dict[int, Tuple[int, bool, int]]
    ) -> "PairTable":
        """Build from ``packed_key -> (origin, unique, monitors)``.

        ``origin`` is ignored (stored as 0) when ``unique`` is False.
        """
        keys = array("Q", sorted(aggregate))
        origins = array("Q", bytes(8 * len(keys)))
        flags = array("B", bytes(len(keys)))
        monitor_counts = array("I", bytes(4 * len(keys)))
        for index, key in enumerate(keys):
            origin, unique, monitors = aggregate[key]
            if unique:
                origins[index] = origin
                flags[index] = UNIQUE_ORIGIN
            monitor_counts[index] = monitors
        return cls(keys, origins, flags, monitor_counts)

    @classmethod
    def from_pairs(cls, pairs: Dict[IPv4Prefix, tuple]) -> "PairTable":
        """Columnar view of a ``prefix -> (OriginSet, count)`` dict.

        The interop path: archive-backed streams and hand-built pair
        dicts enter the columnar kernel through here.
        """
        aggregate: Dict[int, Tuple[int, bool, int]] = {}
        for prefix, (origin_set, monitors) in pairs.items():
            unique = origin_set.is_unique
            aggregate[pack(prefix.network, prefix.length)] = (
                origin_set.sole_origin() if unique else 0,
                unique,
                monitors,
            )
        return cls.from_aggregate(aggregate)

    @classmethod
    def from_buffer(cls, buffer, count: int, offset: int = 0) -> "PairTable":
        """Adopt packed columns straight out of a byte buffer.

        ``buffer`` (typically a :class:`mmap.mmap` over a shard file)
        must hold the :data:`ROW_BYTES`-per-pair column layout written
        by :meth:`to_bytes` starting at ``offset``: ``count`` u64 keys,
        ``count`` u64 origins, ``count`` u32 monitor counts, ``count``
        u8 flags, all little-endian.  On little-endian hosts the
        returned table's columns are cast memoryviews into ``buffer``
        — no bytes are copied, and the views keep the buffer (and its
        mmap) alive; big-endian hosts fall back to copying into real
        arrays with a byteswap.

        The shard header is sized so ``offset`` (and with it every
        column start) lands 8-byte aligned — not something
        ``memoryview.cast`` demands, but it keeps the mapping adoptable
        by stricter readers (numpy views, C extensions) later.
        """
        end = offset + count * ROW_BYTES
        view = memoryview(buffer)[offset:end]
        if len(view) != count * ROW_BYTES:
            raise ValueError(
                f"buffer holds {len(view)} bytes from offset {offset}, "
                f"need {count * ROW_BYTES} for {count} pairs"
            )
        bounds = (0, count * 8, count * 16, count * 20, count * 21)
        if sys.byteorder == "little":
            keys = view[bounds[0]:bounds[1]].cast("Q")
            origins = view[bounds[1]:bounds[2]].cast("Q")
            monitor_counts = view[bounds[2]:bounds[3]].cast("I")
            flags = view[bounds[3]:bounds[4]].cast("B")
            return cls(keys, origins, flags, monitor_counts)
        keys = array("Q")
        keys.frombytes(view[bounds[0]:bounds[1]])
        origins = array("Q")
        origins.frombytes(view[bounds[1]:bounds[2]])
        monitor_counts = array("I")
        monitor_counts.frombytes(view[bounds[2]:bounds[3]])
        flags = array("B")
        flags.frombytes(view[bounds[3]:bounds[4]])
        for column in (keys, origins, monitor_counts):
            column.byteswap()
        return cls(keys, origins, flags, monitor_counts)

    def to_bytes(self) -> bytes:
        """The packed column layout :meth:`from_buffer` reads.

        Always little-endian on disk regardless of host order, so
        shard files are portable across architectures.
        """
        columns = (self.keys, self.origins, self.monitor_counts, self.flags)
        parts = []
        for column in columns:
            if isinstance(column, memoryview):
                # Zero-copy views only exist on little-endian hosts,
                # where the backing buffer already has disk byte order.
                parts.append(column.tobytes())
                continue
            if sys.byteorder != "little":
                column = array(column.typecode, column)
                column.byteswap()
            parts.append(column.tobytes())
        return b"".join(parts)

    @property
    def is_buffer_backed(self) -> bool:
        """True when columns are memoryviews over a mapped buffer.

        Buffer-backed tables are read-only and must never cross a
        process boundary (memoryviews don't pickle) — callers returning
        tables from pool workers go through :meth:`materialize` first.
        """
        return isinstance(self.keys, memoryview)

    def materialize(self) -> "PairTable":
        """A self-contained (picklable, mutable) copy of this table.

        A no-op returning ``self`` for tables already backed by real
        arrays.
        """
        if not self.is_buffer_backed:
            return self
        PairTable.materialize_count += 1
        return PairTable(
            array("Q", self.keys),
            array("Q", self.origins),
            array("B", self.flags),
            array("I", self.monitor_counts),
        )

    def slice(self, low: int, high: int) -> "PairTable":
        """A sub-table over rows ``[low, high)`` of this table.

        Column slicing preserves the backing kind: memoryview columns
        stay zero-copy views into the same buffer (slicing a view
        never copies), array columns copy just the requested range.
        The sorted-key invariant is inherited — any contiguous slice
        of a sorted column is sorted — so sub-tables feed the columnar
        kernel unchanged; this is what the per-/8 intra-day sharding
        hands each sub-task.
        """
        return PairTable(
            self.keys[low:high],
            self.origins[low:high],
            self.flags[low:high],
            self.monitor_counts[low:high],
        )

    @classmethod
    def concat(cls, tables: Iterable["PairTable"]) -> "PairTable":
        """Deterministic k-way columnar concatenation.

        The inverse of slicing a table at cut points: the parts'
        key ranges must be strictly ascending *across* parts (each
        part's first key greater than the previous part's last), so
        simple column concatenation — no merge network, no comparison
        per row — reproduces the sorted-array invariant exactly.  The
        precondition is validated (O(k)); violating it raises
        ``ValueError`` rather than silently producing an unsorted
        table that every bisect-based consumer would misread.

        Always returns an array-backed (picklable, mutable) table:
        the concatenation itself is the copy.
        """
        keys = array("Q")
        origins = array("Q")
        flags = array("B")
        monitor_counts = array("I")
        last_key = -1
        for table in tables:
            if not len(table):
                continue
            if table.keys[0] <= last_key:
                raise ValueError(
                    "PairTable.concat parts must have strictly "
                    "ascending, non-overlapping key ranges "
                    f"(part starting at key {table.keys[0]} follows "
                    f"key {last_key})"
                )
            last_key = table.keys[-1]
            if isinstance(table.keys, memoryview):
                # Views only exist on little-endian hosts, where the
                # backing bytes are already in array order (recast to
                # 'B': frombytes insists on a bytes-shaped buffer).
                keys.frombytes(table.keys.cast("B"))
                origins.frombytes(table.origins.cast("B"))
                flags.frombytes(table.flags.cast("B"))
                monitor_counts.frombytes(table.monitor_counts.cast("B"))
            else:
                keys.extend(table.keys)
                origins.extend(table.origins)
                flags.extend(table.flags)
                monitor_counts.extend(table.monitor_counts)
        return cls(keys, origins, flags, monitor_counts)

    def column_at(self, index: int) -> Tuple[int, int, int, int]:
        """One entry as ``(key, origin, flags, monitors)`` — the unit
        day-over-day deltas (:mod:`repro.delegation.delta`) move."""
        return (
            self.keys[index],
            self.origins[index],
            self.flags[index],
            self.monitor_counts[index],
        )

    def equals(self, other: "PairTable") -> bool:
        """Exact column equality (same pairs, same observed facts)."""
        return (
            self.keys == other.keys
            and self.origins == other.origins
            and self.flags == other.flags
            and self.monitor_counts == other.monitor_counts
        )

    def rows(self) -> Iterator[Tuple[IPv4Prefix, Optional[int], int]]:
        """Yield ``(prefix, sole_origin_or_None, monitor_count)``."""
        for index, key in enumerate(self.keys):
            network, length = unpack(key)
            unique = bool(self.flags[index] & UNIQUE_ORIGIN)
            yield (
                IPv4Prefix(network, length),
                self.origins[index] if unique else None,
                self.monitor_counts[index],
            )

    def __len__(self) -> int:
        return len(self.keys)

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __repr__(self) -> str:
        return f"<PairTable with {len(self.keys)} pairs>"


class RoutingTable:
    """The routing table of a single monitor at one collector."""

    def __init__(self, collector: str, monitor_asn: int):
        self._collector = collector
        self._monitor = monitor_asn
        self._routes: PrefixTrie[ASPath] = PrefixTrie()

    @property
    def collector(self) -> str:
        return self._collector

    @property
    def monitor_asn(self) -> int:
        return self._monitor

    # -- mutation ------------------------------------------------------

    def announce(self, prefix: IPv4Prefix, as_path: ASPath) -> bool:
        """Install/replace a route; True if the table changed."""
        existing = self._routes.get(prefix)
        if existing == as_path:
            return False
        self._routes.insert(prefix, as_path)
        return True

    def withdraw(self, prefix: IPv4Prefix) -> bool:
        """Remove the route for ``prefix``; True if one existed."""
        return self._routes.delete(prefix)

    # -- queries ----------------------------------------------------------

    def route_for(self, prefix: IPv4Prefix) -> Optional[ASPath]:
        """Exact-match route lookup."""
        return self._routes.get(prefix)

    def best_match(
        self, prefix: IPv4Prefix
    ) -> Optional[Tuple[IPv4Prefix, ASPath]]:
        """Longest-prefix-match lookup (forwarding behaviour)."""
        return self._routes.longest_match(prefix)

    def prefixes(self) -> Iterator[IPv4Prefix]:
        return self._routes.keys()

    def records(self, date: datetime.date) -> Iterator[RouteRecord]:
        """Dump the table as :class:`RouteRecord` elements."""
        for prefix, as_path in self._routes.items():
            yield RouteRecord(
                collector=self._collector,
                monitor_asn=self._monitor,
                prefix=prefix,
                as_path=as_path,
                date=date,
            )

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return prefix in self._routes

    # -- reconciliation ----------------------------------------------------

    def reconcile(
        self,
        desired: Dict[IPv4Prefix, ASPath],
        date: datetime.date,
    ) -> Tuple[List[RouteRecord], List[Withdrawal]]:
        """Move the table to ``desired``; return the implied updates.

        Produces the announce/withdraw messages a collector's update
        file would contain between two daily snapshots.
        """
        announcements: List[RouteRecord] = []
        withdrawals: List[Withdrawal] = []
        current = dict(self._routes.items())
        for prefix, as_path in desired.items():
            if current.get(prefix) != as_path:
                self.announce(prefix, as_path)
                announcements.append(
                    RouteRecord(
                        collector=self._collector,
                        monitor_asn=self._monitor,
                        prefix=prefix,
                        as_path=as_path,
                        date=date,
                    )
                )
        for prefix in current:
            if prefix not in desired:
                self.withdraw(prefix)
                withdrawals.append(
                    Withdrawal(
                        collector=self._collector,
                        monitor_asn=self._monitor,
                        prefix=prefix,
                        date=date,
                    )
                )
        return announcements, withdrawals
