"""Memory-mapped per-day shard files: the out-of-core pair store.

A shard holds one day's aggregated (prefix, origin) pairs in exactly
the columnar layout :class:`~repro.bgp.rib.PairTable` uses in RAM —
a 32-byte header followed by the four packed columns back-to-back
(``PairTable.to_bytes``).  Loading a shard therefore never parses or
copies anything on little-endian hosts: the file is mapped read-only
and the table's columns become cast memoryviews straight into the map
(:meth:`PairTable.from_buffer`), which the columnar kernel and the
:class:`~repro.netbase.lpm.SortedPrefixMap` LPM consume as-is.

Layout (all little-endian)::

    offset  size  field
    0       8     magic  b"RPSHARD3"
    8       2     schema (3)
    10      2     year
    12      1     month
    13      1     day
    14      4     total monitor count (the visibility denominator)
    18      8     pair count n
    26      6     zero padding (header is 32 bytes, so every column
                  start below is 8-byte aligned)
    32      8n    keys        u64  (network << 6 | length, sorted)
    32+8n   8n    origins     u64
    32+16n  4n    monitor_counts  u32
    32+20n  n     flags       u8

Shards are *pre-filter inputs* — the day's observed pairs before any
inference step runs — so the content address deliberately excludes the
inference config: every config sweep shares one store.  That is also what separates input shards from the
store's result shards (which key on the config and hold post-filter
quads): input shards survive ablation sweeps untouched, result shards
do not.

Writes are atomic (write to ``<name>.tmp.<pid>``, then
``os.replace``), so concurrent writers race benignly — both produce
identical bytes for the same key and readers only ever see a complete
file.  Anything else (torn tails, foreign magic, a v2 result payload
dropped into the store, a truncated map) is detected by the header
and length checks, counted on ``store.malformed``, and treated as a
miss.
"""

from __future__ import annotations

import datetime
import logging
import mmap
import os
import pathlib
import struct
import time
from typing import Optional, Tuple, Union

from repro.bgp.rib import ROW_BYTES, PairTable
from repro.netbase.lpm import require_codec_itemsizes
from repro.obs.metrics import NULL, MetricsRegistry

require_codec_itemsizes()

logger = logging.getLogger(__name__)

#: Bump when the shard layout changes: old files become misses (the
#: schema is part of both the magic and the content address).
SHARD_SCHEMA = 3

_SHARD_MAGIC = b"RPSHARD3"
_SHARD_HEADER = struct.Struct("<8sHHBBIQ6x")
assert _SHARD_HEADER.size == 32  # keeps every column start 8-byte aligned

#: Temporaries older than this are presumed crash leftovers; younger
#: ones may belong to a live writer and are left alone.
STALE_TMP_SECONDS = 3600.0


def encode_shard_bytes(
    date: datetime.date, table: PairTable, total_monitors: int
) -> bytes:
    """One day's table in the RPSHARD3 on-disk/on-segment layout.

    The same bytes :meth:`ShardStore.write` persists;
    :func:`decode_shard_buffer` adopts them back.
    """
    header = _SHARD_HEADER.pack(
        _SHARD_MAGIC, SHARD_SCHEMA,
        date.year, date.month, date.day,
        total_monitors, len(table),
    )
    return header + table.to_bytes()


def decode_shard_buffer(
    buffer,
    *,
    expected_date: Optional[datetime.date] = None,
) -> Optional[Tuple[PairTable, int]]:
    """Adopt an RPSHARD3 buffer; ``(table, total_monitors)`` or ``None``.

    ``buffer`` is any byte buffer holding what :func:`encode_shard_bytes`
    produced — typically a read-only mmap over a shard file.  The returned table is zero-copy (buffer-backed)
    on little-endian hosts; anything torn, foreign, or (when
    ``expected_date`` is given) misdated decodes to ``None``.
    """
    size = len(memoryview(buffer))
    if size < _SHARD_HEADER.size:
        return None
    magic, schema, year, month, day, total_monitors, count = (
        _SHARD_HEADER.unpack_from(buffer)
    )
    if magic != _SHARD_MAGIC or schema != SHARD_SCHEMA:
        return None
    if expected_date is not None and (year, month, day) != (
        expected_date.year, expected_date.month, expected_date.day
    ):
        return None
    if size != _SHARD_HEADER.size + count * ROW_BYTES:
        return None
    table = PairTable.from_buffer(
        buffer, count, offset=_SHARD_HEADER.size
    )
    return table, total_monitors


def atomic_write_bytes(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    The temporary name *appends* ``.tmp.<pid>`` to the full file name
    (``with_name``, not ``with_suffix``) so entries differing only in
    their real suffix can never collide on the same temporary, and two
    pids writing the same entry use distinct temporaries.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def sweep_stale_temporaries(
    base: Union[str, pathlib.Path],
    *,
    metrics: MetricsRegistry = NULL,
    max_age_seconds: float = STALE_TMP_SECONDS,
) -> int:
    """Delete orphaned atomic-write temporaries under ``base``.

    A crash between the temporary write and the ``os.replace`` leaks
    one ``*.tmp.<pid>`` file; this removes any such file older than
    ``max_age_seconds`` (young ones may belong to a concurrent live
    writer).  Returns the number removed and bumps
    ``store.tmp_swept``.
    """
    base = pathlib.Path(base)
    if not base.is_dir():
        return 0
    cutoff = time.time() - max_age_seconds
    removed = 0
    for path in base.rglob("*.tmp.*"):
        try:
            if path.stat().st_mtime > cutoff:
                continue
            path.unlink()
        except OSError:
            continue  # raced with the owner finishing or another sweep
        removed += 1
    if removed:
        metrics.inc("store.tmp_swept", removed)
        logger.info("swept %d stale temporaries under %s", removed, base)
    return removed


class ShardStore:
    """Content-addressed per-day shard files under one directory.

    ``input_fingerprint`` identifies the input data
    (``StreamFactory.fingerprint()``); input-shard keys hash
    ``(schema, input, date)`` and nothing else, so the store is shared
    across inference configs.

    Loaded tables are zero-copy views over read-only maps; each view
    keeps its map (and file) alive for as long as the table is
    referenced, so a sweep holds at most a handful of day-maps open at
    a time regardless of how large the days are.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        input_fingerprint: str,
        *,
        metrics: MetricsRegistry = NULL,
        sweep: bool = True,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.input_fingerprint = input_fingerprint
        self.metrics = metrics
        self._mapped_bytes = 0
        if sweep:
            sweep_stale_temporaries(self.directory, metrics=metrics)

    # -- addressing ----------------------------------------------------

    def key(self, date: datetime.date) -> str:
        # Imported lazily: delegation's package __init__ pulls in the
        # runner, which imports this module — a top-level import here
        # would close that cycle before either side finished binding.
        from repro.delegation.io import content_digest

        return content_digest({
            "schema": SHARD_SCHEMA,
            "input": self.input_fingerprint,
            "date": date.isoformat(),
        })

    def path(self, date: datetime.date) -> pathlib.Path:
        key = self.key(date)
        # Two-level fan-out, like the result shards: multi-year sweeps
        # never pile thousands of files into one directory.
        return self.directory / key[:2] / f"{key}.shard"

    # -- read ----------------------------------------------------------

    def load(
        self, date: datetime.date
    ) -> Optional[Tuple[PairTable, int]]:
        """Map one day; ``(table, total_monitors)`` or ``None``.

        Missing days are plain misses; unreadable or malformed files
        are logged, counted on ``store.malformed``, and also treated
        as misses so a corrupt shard degrades to a recompute instead
        of poisoning the sweep.
        """
        path = self.path(date)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            self.metrics.inc("store.misses")
            return None
        except OSError:
            logger.warning("discarding unreadable shard %s", path)
            self.metrics.inc("store.malformed")
            self.metrics.inc("store.misses")
            return None
        with handle:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError):
                # Zero-length files can't be mapped — a torn create.
                logger.warning("discarding unmappable shard %s", path)
                self.metrics.inc("store.malformed")
                self.metrics.inc("store.misses")
                return None
        loaded = self._decode(mapped, date, path)
        if loaded is None:
            mapped.close()
            self.metrics.inc("store.malformed")
            self.metrics.inc("store.misses")
            return None
        self.metrics.inc("store.hits")
        self._mapped_bytes += len(mapped)
        self.metrics.set_gauge(
            "store.mapped_kb", self._mapped_bytes // 1024
        )
        return loaded

    def _decode(
        self,
        mapped: mmap.mmap,
        date: datetime.date,
        path: pathlib.Path,
    ) -> Optional[Tuple[PairTable, int]]:
        # The content address embeds the date, so a date mismatch means
        # the file was renamed or the store mixed up — rejected like
        # torn or foreign bytes.
        loaded = decode_shard_buffer(mapped, expected_date=date)
        if loaded is None:
            logger.warning("discarding invalid shard %s", path)
        return loaded

    # -- write ---------------------------------------------------------

    def write(
        self,
        date: datetime.date,
        table: PairTable,
        total_monitors: int,
    ) -> pathlib.Path:
        """Persist one day's table atomically; returns the path."""
        path = self.path(date)
        atomic_write_bytes(
            path, encode_shard_bytes(date, table, total_monitors)
        )
        self.metrics.inc("store.writes")
        return path

    # -- result shards -------------------------------------------------
    #
    # A second namespace under the same directory: *post-filter* per-day
    # results in the runner's v2 payload layout (RPD2 quads), written
    # through by every full sweep and mapped back zero-copy on the next
    # one.  Unlike the input shards above — keyed on the input only —
    # result shards are keyed on the runner's config-hash digest
    # (``_cache_key``), because filter output depends on the inference
    # configuration.  The store treats the payload as opaque bytes; the
    # runner owns the codec and its validation.

    def result_path(self, key: str) -> pathlib.Path:
        """Where the result shard for one config-hash key lives."""
        return self.directory / "results" / key[:2] / f"{key}.rpd"

    def load_result(self, key: str) -> Optional[mmap.mmap]:
        """Map one result shard read-only; raw bytes or ``None``.

        Missing entries count as ``store.result_misses``; the caller
        decodes (and on malformed bytes bumps ``store.malformed`` +
        ``store.result_misses`` itself, then closes the map).
        """
        path = self.result_path(key)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            self.metrics.inc("store.result_misses")
            return None
        except OSError:
            logger.warning("discarding unreadable result shard %s", path)
            self.metrics.inc("store.malformed")
            self.metrics.inc("store.result_misses")
            return None
        with handle:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError):
                logger.warning(
                    "discarding unmappable result shard %s", path
                )
                self.metrics.inc("store.malformed")
                self.metrics.inc("store.result_misses")
                return None
        self._mapped_bytes += len(mapped)
        self.metrics.set_gauge(
            "store.mapped_kb", self._mapped_bytes // 1024
        )
        return mapped

    def write_result(self, key: str, data: bytes) -> pathlib.Path:
        """Persist one result payload atomically; returns the path."""
        path = self.result_path(key)
        atomic_write_bytes(path, data)
        self.metrics.inc("store.result_writes")
        return path
