"""Parallel execution of the delegation-inference pipeline.

The Fig. 6 measurement runs steps (i)–(iv) on ~880 independent daily
RIBs and applies the cross-day consistency rule (v) once over the
whole window.  The per-day passes are embarrassingly parallel and
fully determined by the inference configuration plus the input data,
so this module provides:

- **day fan-out** across a :class:`concurrent.futures.
  ProcessPoolExecutor` — the date range is split into contiguous
  chunks of whole days, each worker builds its route stream once (from
  a picklable *stream factory*) and reuses it for every day it runs,
  and the as2org snapshots are shipped to each worker once at pool start-up
  instead of being re-loaded per day;
- **zero-copy streaming fan-in** — workers pack each chunk's per-day
  payloads into one shared-memory segment in the compact v2 ``RPD2``
  layout (a fixed struct header with the date and the five attrition
  counters, then flat little-endian ``(network, length, delegator,
  delegatee)`` quads, 16 bytes per delegation), or pickle them when
  they cannot get a segment.  The parent folds each day into one
  :class:`~repro.delegation.inference.InferenceResult` as its bytes
  arrive — one buffer copy into that day's
  :class:`~repro.delegation.model.DailyDelegations` column — and
  closes each segment or result-shard map before it takes the next,
  so no fan-in buffer outlives its chunk.  Extension (v) runs once,
  after the last day, so the output is byte-identical to the
  sequential
  :meth:`~repro.delegation.inference.DelegationInference.infer_range`;
- **persistent per-day results** — with a
  :class:`~repro.store.shard.ShardStore` attached, every computed
  day's RPD2 bytes are written through to the store's result-shard
  namespace as the day is folded, under a content address over the
  :class:`~repro.delegation.inference.InferenceConfig` fields that
  affect steps (i)–(iv) plus fingerprints of the input stream and the
  as2org dataset.  Re-running with an unchanged configuration maps
  every day straight back; sweeping the consistency rule (v) never
  invalidates a result shard, because (v) runs after the fan-in.

Worker failures (including hard crashes that break the pool) surface
as :class:`~repro.errors.ReproError` instead of a hang or a raw
``BrokenProcessPool``.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import itertools
import logging
import os
import pathlib
import struct
import sys
import time
from array import array
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.asorg.as2org import As2OrgDataset
from repro.bgp.rib import PairTable
from repro.bgp.stream import RouteStream, date_range
from repro.delegation.consistency import fill_gaps
from repro.delegation.inference import (
    DelegationInference,
    InferenceConfig,
    InferenceResult,
    record_pipeline_counters,
    rows_column,
)
from repro.delegation.io import content_digest
from repro.delegation.model import DailyDelegations
from repro.errors import ReproError
from repro.netbase.lpm import require_codec_itemsizes
from repro.obs.metrics import NULL, MetricsRegistry
from repro.store.shard import ShardStore

require_codec_itemsizes()

logger = logging.getLogger(__name__)

#: Bump when the per-day payload layout changes: old entries become
#: misses instead of being misread.  v2 switched the per-day payload
#: from JSON (string prefixes) to the compact binary quad encoding —
#: and because the schema participates in :func:`_cache_key`, every v1
#: entry hashes to a different address and is never even opened.
CACHE_SCHEMA = 2

#: Target number of chunks per worker — small enough to amortize task
#: dispatch, large enough to keep the pool busy when days vary in cost.
_CHUNKS_PER_WORKER = 4

#: A picklable zero-argument callable building the worker's stream.
StreamFactory = Callable[[], RouteStream]


@dataclass(frozen=True)
class WorldStreamFactory:
    """Build a :class:`RouteStream` from a scenario, in any process.

    The scenario config is a small frozen dataclass, so shipping the
    factory to a worker costs a few hundred bytes; the worker then
    regenerates its own deterministic world (topology, propagation,
    announcement source) exactly once and serves every day it runs
    from it.
    """

    scenario: object  # repro.simulation.scenario.ScenarioConfig

    def __call__(self) -> RouteStream:
        from repro.simulation import World

        return World(self.scenario).stream()

    def fingerprint(self) -> str:
        """Input identity for the store's content addresses.

        ``repr`` of a frozen dataclass is deterministic across
        processes (unlike ``hash``) and covers every generation
        parameter, including the seed.
        """
        text = f"world:{self.scenario!r}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArchiveStreamFactory:
    """Build an archive-backed :class:`RouteStream` in any process.

    ``system_factory`` must itself be picklable and rebuild the
    :class:`~repro.bgp.collector.CollectorSystem` describing the
    monitor population (needed for the visibility denominator).
    """

    archive_dir: str
    system_factory: Callable[[], object]

    def __call__(self) -> RouteStream:
        return RouteStream(
            self.system_factory(), archive_dir=self.archive_dir
        )

    def fingerprint(self) -> str:
        """Hash of the archive's file names and sizes.

        Cheap (no content read) but catches added/removed days and
        rewritten files of different length; byte-level edits that
        preserve the size are considered the same input.
        """
        base = pathlib.Path(self.archive_dir)
        # The tag stands for what ``pair_table_on`` keeps of the files
        # (v2: no route that breaks an AS-path rule).  Change it with
        # that, so input shards of another reading become misses.
        digest = hashlib.sha256(b"archive:v2:")
        for path in sorted(base.rglob("*.jsonl")):
            stat = path.stat()
            entry = f"{path.relative_to(base)}:{stat.st_size}"
            digest.update(entry.encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class RunnerStats:
    """What one :func:`run_inference` call actually did."""

    jobs: int
    days_total: int
    #: Days served from result shards without computing.
    days_from_cache: int
    days_computed: int
    elapsed_seconds: float
    #: The shard store directory, when the run was store-backed.
    store_dir: Optional[str] = None


# -- per-day result payloads ----------------------------------------------


def _cache_key(
    config: InferenceConfig,
    date: datetime.date,
    input_fingerprint: str,
    as2org_fingerprint: Optional[str],
) -> str:
    """Content address of one day's steps (i)–(iv) output.

    Result shards live under this key.  Deliberately excludes
    ``consistency_rule``: extension (v) is
    applied after the fan-in, so sweeping (M, N) reuses every per-day
    entry.  The as2org fingerprint only participates when extension
    (iv) is on — toggling datasets cannot invalidate runs that never
    consulted them.
    """
    return content_digest({
        "schema": CACHE_SCHEMA,
        "date": date.isoformat(),
        "visibility_threshold": repr(config.visibility_threshold),
        "same_org_filter": config.same_org_filter,
        "input": input_fingerprint,
        "as2org": as2org_fingerprint if config.same_org_filter else None,
    })


#: v2 binary layout: header (magic, schema, date, the five attrition
#: counters, record count) followed by ``count`` little-endian u32
#: quads ``(network, length, delegator, delegatee)``.
_CACHE_MAGIC = b"RPD2"
_CACHE_HEADER = struct.Struct("<4sHHBB5QI")
_QUAD_BYTES = 16
_COUNTER_FIELDS = (
    "pairs_seen",
    "pairs_dropped_visibility",
    "pairs_dropped_origin",
    "delegations_dropped_same_org",
    "bogon_prefix",
)


def _encode_payload(payload: dict) -> bytes:
    """Serialize one day's payload into the v2 binary form.

    ``payload["delegations"]`` is the day's flat native-order u32
    column (an ``array("I")`` or a cast view), four words per quad.
    """
    date = payload["date"]
    counters = payload["counters"]
    words = payload["delegations"]
    header = _CACHE_HEADER.pack(
        _CACHE_MAGIC, CACHE_SCHEMA, date.year, date.month, date.day,
        *(counters[name] for name in _COUNTER_FIELDS), len(words) // 4,
    )
    if sys.byteorder != "little":
        words = array("I", words)
        words.byteswap()
    return header + memoryview(words).tobytes()


def _decode_payload(data) -> Optional[dict]:
    """Parse one v2 payload; ``None`` for anything torn or foreign.

    ``data`` is any buffer: bytes, a shared-memory slice, a mapped
    result shard.  The delegations come back as the flat native-order
    u32 column: on little-endian hosts a zero-copy ``"I"`` cast of the
    body, on big-endian hosts a byte-swapped ``array("I")`` copy (a
    cast view would transpose every word).
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    if len(view) < _CACHE_HEADER.size:
        return None
    fields = _CACHE_HEADER.unpack_from(view)
    magic, schema, year, month, day = fields[:5]
    count = fields[10]
    if magic != _CACHE_MAGIC or schema != CACHE_SCHEMA:
        return None
    if len(view) != _CACHE_HEADER.size + count * _QUAD_BYTES:
        return None
    try:
        date = datetime.date(year, month, day)
    except ValueError:
        return None
    body = view[_CACHE_HEADER.size:]
    if sys.byteorder == "little":
        delegations = body.cast("I")
    else:
        delegations = array("I")
        delegations.frombytes(body)
        delegations.byteswap()
    return {
        "date": date,
        "delegations": delegations,
        "counters": dict(zip(_COUNTER_FIELDS, fields[5:10])),
    }


def _fold_day(result: InferenceResult, payload: dict) -> None:
    """Add one day's column and attrition counters to ``result``."""
    counters = payload["counters"]
    result.pairs_seen += counters["pairs_seen"]
    result.pairs_dropped_visibility += counters["pairs_dropped_visibility"]
    result.pairs_dropped_origin += counters["pairs_dropped_origin"]
    result.delegations_dropped_same_org += counters[
        "delegations_dropped_same_org"
    ]
    result.pairs_dropped_bogon += counters["bogon_prefix"]
    result.daily.record_quads(payload["date"], payload["delegations"])


def _fold_encoded(result: InferenceResult, data) -> Optional[datetime.date]:
    """Fold one day's v2 bytes into ``result``; the day's date, or
    ``None`` (nothing folded) when they are torn or foreign.

    The decoded view into ``data`` is released before this returns, so
    the caller can close the segment or map behind ``data`` at once.
    """
    payload = _decode_payload(data)
    if payload is None:
        return None
    words = payload["delegations"]
    try:
        _fold_day(result, payload)
    finally:
        if isinstance(words, memoryview):
            words.release()
    return payload["date"]


# -- zero-copy result fan-in ----------------------------------------------
#
# Workers never pickle a result row back to the parent when they can
# avoid it.  Each chunk encodes its payloads into the exact v2 bytes,
# packs them back-to-back into one POSIX shared-memory segment, and
# returns only ``("shm", name, size, entries)`` — a few dozen bytes
# per chunk.  The parent attaches the segment, **unlinks it
# immediately** (the mapping survives; the name cannot leak past a
# crash), then folds each entry straight out of the mapping — decode,
# copy into the day's column, write through to the store if one is
# attached — releases each entry's view, and closes the segment before
# it takes the next chunk.  At most one chunk is mapped at a time, and
# none by the time rule (v) runs.
#
# Segment names carry a per-run prefix (parent pid + run counter), so
# the parent can sweep any segment a dying worker left behind: names
# are swept from ``/dev/shm`` after pool shutdown on every exit path
# (completion, worker failure, KeyboardInterrupt).  Creation happens
# in workers and unlink/sweep in the parent, which is why the resource
# tracker must be started *before* the pool forks — both sides then
# talk to the same tracker process and every register is matched by
# exactly one unregister (no spurious leak warnings at exit).
#
# When :func:`_create_worker_segment` cannot get a segment (no
# ``/dev/shm``, exhausted shared memory), the chunk's encoded bytes are
# pickled back instead; ``fanin.pickled_kb`` counts them.

_SHM_RUN_COUNTER = itertools.count()


def _shm_run_prefix() -> str:
    """A per-run segment-name prefix, unique across live parents.

    Short on purpose: POSIX shm names are capped at 31 characters on
    some platforms, and workers append their own pid + sequence.
    """
    return f"rpfi{os.getpid():x}g{next(_SHM_RUN_COUNTER):x}"


def _create_worker_segment(
    size: int, prefix: str
) -> Optional[shared_memory.SharedMemory]:
    """Create one result segment in a worker; ``None`` to fall back.

    The name embeds the worker pid plus a worker-local sequence, so
    collisions only happen against leftovers from a recycled pid —
    retried with the next sequence number rather than failed.
    """
    for _ in range(8):
        seq = _WORKER_STATE["shm_seq"] = (
            _WORKER_STATE.get("shm_seq", 0) + 1
        )
        name = f"{prefix}w{os.getpid():x}c{seq:x}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(size, 1)
            )
        except FileExistsError:
            continue
        except OSError:
            return None
    return None


def _ship_chunk(blobs: List[bytes], entries: List[tuple]) -> tuple:
    """Pack a chunk's encoded days into one segment for the parent.

    Returns ``("shm", name, size, entries)`` where each entry is
    ``(offset, length)`` — everything the parent needs to fold each day
    zero-copy in :func:`_fold_chunk`.
    Without a segment the same bytes travel pickled instead:
    ``("bytes", data, entries)``.
    """
    total = sum(len(blob) for blob in blobs)
    segment = _create_worker_segment(total, _WORKER_STATE["shm_prefix"])
    if segment is None:
        return ("bytes", b"".join(blobs), entries)
    try:
        for blob, (offset, length) in zip(blobs, entries):
            segment.buf[offset:offset + length] = blob
        name = segment.name
    except BaseException:
        segment.unlink()
        raise
    finally:
        segment.close()
    return ("shm", name, total, entries)


def _sweep_segments(prefix: str) -> int:
    """Unlink any segment of this run still named in ``/dev/shm``.

    Normal operation leaves nothing here — the parent unlinks each
    segment the moment it attaches — so anything matching the prefix
    after pool shutdown was abandoned by a worker that died between
    creating its segment and returning the descriptor.  Unlinking via
    an attach also unregisters the name with the (shared) resource
    tracker, so the crash path stays warning-free too.
    """
    base = pathlib.Path("/dev/shm")
    if not base.is_dir():
        return 0
    removed = 0
    for path in base.glob(f"{prefix}*"):
        try:
            segment = shared_memory.SharedMemory(name=path.name)
        except (FileNotFoundError, OSError):
            continue
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        segment.close()
        removed += 1
    if removed:
        logger.warning(
            "swept %d abandoned fan-in segment(s) with prefix %s",
            removed, prefix,
        )
    return removed


def _fold_chunk(
    shipped: tuple,
    result: InferenceResult,
    store: Optional[ShardStore],
    result_key: Callable[[datetime.date], str],
) -> int:
    """Fold one worker chunk's days into ``result``; its byte size.

    A ``("shm", ...)`` chunk's segment is attached and *immediately
    unlinked*: the mapping stays valid for this process, while the
    name is gone before anything else can go wrong.  ``("bytes", ...)``
    chunks carry the same bytes pickled.  Each day decodes zero-copy,
    is folded and, given a store, written through to its result shard
    under ``result_key(date)``; every view is released before the
    segment is closed.
    """
    segment = None
    if shipped[0] == "shm":
        _kind, name, size, entries = shipped
        segment = shared_memory.SharedMemory(name=name)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        buf, source = segment.buf, f"segment {name}"
    else:
        _kind, buf, entries = shipped
        size, source = len(buf), "a pickled chunk"
    try:
        for offset, length in entries:
            with memoryview(buf)[offset:offset + length] as view:
                date = _fold_encoded(result, view)
                if date is None:
                    raise ReproError(
                        "result fan-in: malformed payload entry at offset "
                        f"{offset} of {source}"
                    )
                if store is not None:
                    store.write_result(result_key(date), view)
    finally:
        if segment is not None:
            segment.close()
    return size


def _fold_result_shard(
    store: ShardStore, key: str, result: InferenceResult
) -> bool:
    """Fold one day's result shard into ``result``; ``False`` on a miss.

    A hit maps the shard read-only, folds it zero-copy and unmaps it —
    the warm path for ``--store`` sweeps skips the input shard, the
    stream and the kernel.  Malformed bytes degrade to a miss
    (counted), exactly like the input-shard namespace.
    """
    mapped = store.load_result(key)
    if mapped is None:
        return False
    with mapped, memoryview(mapped) as view:
        date = _fold_encoded(result, view)
    if date is None:
        logger.warning(
            "discarding malformed result shard %s",
            store.result_path(key),
        )
        store.metrics.inc("store.malformed")
        store.metrics.inc("store.result_misses")
        return False
    store.metrics.inc("store.result_hits")
    return True


# -- per-day computation (shared by workers and the in-process path) ------


class _DaySource:
    """Where a day's pair facts come from: shard store, then stream.

    With a :class:`~repro.store.shard.ShardStore` attached, every day
    is probed there first — a hit maps the shard read-only and returns
    a zero-copy table without ever building the stream (a fully warm
    sweep never regenerates the world at all); a miss lazily builds
    the stream once, aggregates the day, and writes the shard back so
    the next run (or another worker revisiting the day) maps it.

    Store-less sources reduce exactly to the previous behaviour: the
    stream is built once and every day reads from it.
    """

    def __init__(
        self,
        factory: StreamFactory,
        store: Optional[ShardStore] = None,
        metrics: MetricsRegistry = NULL,
    ) -> None:
        self._factory = factory
        self.store = store
        self._metrics = metrics
        self._stream: Optional[RouteStream] = None

    def set_metrics(self, metrics: MetricsRegistry) -> None:
        """Swap the registry (workers ship a fresh one per chunk)."""
        self._metrics = metrics
        if self.store is not None:
            self.store.metrics = metrics
        if self._stream is not None and hasattr(
            self._stream, "set_metrics"
        ):
            self._stream.set_metrics(metrics)

    def stream(self) -> RouteStream:
        if self._stream is None:
            self._stream = self._factory()
            if self._metrics.enabled and hasattr(
                self._stream, "set_metrics"
            ):
                self._stream.set_metrics(self._metrics)
        return self._stream

    def table_on(
        self, date: datetime.date
    ) -> Tuple["object", int]:
        """``(PairTable, total_monitors)`` for one day.

        Store hits come back mmap-backed (read-only, not picklable —
        see :meth:`~repro.bgp.rib.PairTable.materialize`); misses are
        computed from the stream and written through.
        """
        if self.store is not None:
            loaded = self.store.load(date)
            if loaded is not None:
                return loaded
        stream = self.stream()
        table = stream.pair_table_on(date)
        total_monitors = stream.monitor_count()
        if self.store is not None:
            self.store.write(date, table, total_monitors)
        return table, total_monitors


def _compute_day_payload(
    source: _DaySource,
    inference: DelegationInference,
    date: datetime.date,
    metrics: MetricsRegistry = NULL,
) -> dict:
    """Steps (i)–(iv) for one day, as a numeric payload.

    The payload mirrors the v2 result layout: the day's packed
    ``(network, length, delegator, delegatee)`` column plus the
    bookkeeping counters the sequential path accumulates.  The day
    never materializes per-record objects — the kernel's packed rows
    are reshaped straight into the column
    (:func:`~repro.delegation.inference.rows_column`), straight off the
    shard mapping when the source is store-backed.
    """
    scratch = InferenceResult(
        daily=DailyDelegations(), config=inference.config
    )
    table, total_monitors = source.table_on(date)
    rows = inference._table_delegation_rows(
        table, total_monitors, date, scratch, metrics=metrics,
    )
    return {
        "date": date,
        "delegations": rows_column(rows),
        "counters": {
            "pairs_seen": scratch.pairs_seen,
            "pairs_dropped_visibility": scratch.pairs_dropped_visibility,
            "pairs_dropped_origin": scratch.pairs_dropped_origin,
            "delegations_dropped_same_org":
                scratch.delegations_dropped_same_org,
            "bogon_prefix": scratch.pairs_dropped_bogon,
        },
    }


# -- worker side ----------------------------------------------------------

_WORKER_STATE: dict = {}


def _init_worker(
    factory: StreamFactory,
    config: InferenceConfig,
    as2org: Optional[As2OrgDataset],
    instrument: bool = False,
    trace: bool = False,
    profile: bool = False,
    store_dir: Optional[str] = None,
    input_fp: Optional[str] = None,
    shm_prefix: Optional[str] = None,
) -> None:
    """Pool initializer: runs once per worker process.

    The factory and the (potentially large) as2org dataset are
    transferred exactly once here; the stream itself is built lazily on
    the first chunk so that pool start-up stays cheap.  With
    ``store_dir`` set, the worker opens the shard store *by path* and
    maps its days read-only — the parent ships two short strings
    instead of pickling any table data, and a warm worker never builds
    its stream at all.  When ``instrument`` is set, each chunk records
    into a fresh :class:`MetricsRegistry` that is shipped back with
    its payloads and merged in the parent (registries are picklable by
    design); ``trace`` upgrades it to a :class:`~repro.obs.trace.
    TracingRegistry` on a per-worker lane, ``profile`` adds
    ``tracemalloc`` peak gauges.
    """
    _WORKER_STATE.clear()
    _WORKER_STATE["factory"] = factory
    _WORKER_STATE["config"] = config
    _WORKER_STATE["as2org"] = as2org
    _WORKER_STATE["instrument"] = instrument
    _WORKER_STATE["trace"] = trace
    _WORKER_STATE["profile"] = profile
    _WORKER_STATE["store_dir"] = store_dir
    _WORKER_STATE["input_fp"] = input_fp
    _WORKER_STATE["shm_prefix"] = shm_prefix


def _worker_registry() -> MetricsRegistry:
    """A fresh per-chunk registry matching the parent's capabilities.

    Tracing workers record onto their own lane (``worker-<pid>``), so
    the merged timeline shows which process ran which days; the lane
    is stable for the worker's lifetime while each chunk still ships
    an independent registry back for the order-insensitive fan-in.
    That fan-in carries latency *distributions* too: every worker
    timer records into a fixed-bucket
    :class:`~repro.obs.telemetry.HistogramStats`, and because the
    buckets are fixed the bucket-wise sum is associative and
    commutative — the merged p99 is independent of chunk scheduling,
    exactly like counters (pinned by
    ``tests/obs/test_merge_properties.py``).
    """
    if _WORKER_STATE.get("trace"):
        from repro.obs.trace import TracingRegistry

        registry: MetricsRegistry = TracingRegistry(
            lane=f"worker-{os.getpid()}"
        )
    else:
        registry = MetricsRegistry()
    if _WORKER_STATE.get("profile"):
        registry.enable_memory_profile()
    return registry


def _worker_source() -> _DaySource:
    """The worker's lazily-built day source (one per process).

    Store-backed workers open the shard store read-mostly by path —
    without the stale-temporary sweep, which only the parent runs
    (concurrent workers sweeping under each other would race).
    """
    source = _WORKER_STATE.get("source")
    if source is None:
        store = None
        if _WORKER_STATE.get("store_dir") is not None:
            store = ShardStore(
                _WORKER_STATE["store_dir"],
                _WORKER_STATE["input_fp"],
                sweep=False,
            )
        source = _DaySource(_WORKER_STATE["factory"], store)
        _WORKER_STATE["source"] = source
    return source


def _worker_run_chunk(
    tasks: Sequence[datetime.date],
) -> Tuple[tuple, Optional[MetricsRegistry]]:
    """Execute steps (i)–(iv) for one chunk of days.

    Each task is one whole day.  Every finished day is encoded to its
    v2 bytes at once, so a chunk holds one copy of each day and worker
    memory stays flat however many days a chunk spans.  Returns the
    :func:`_ship_chunk` descriptor plus the chunk's metrics registry
    (``None`` when the run is uninstrumented).
    """
    source = _worker_source()
    inference = _WORKER_STATE.get("inference")
    if inference is None:
        inference = DelegationInference(
            _WORKER_STATE["config"], _WORKER_STATE["as2org"]
        )
        _WORKER_STATE["inference"] = inference
    registry: Optional[MetricsRegistry] = None
    if _WORKER_STATE.get("instrument"):
        registry = _worker_registry()
        source.set_metrics(registry)
        materialized_before = PairTable.materialize_count
    blobs: List[bytes] = []
    entries: List[tuple] = []
    offset = 0
    for date in tasks:
        if registry is None:
            payload = _compute_day_payload(source, inference, date)
        else:
            # A span (not a bare observe) so the same per-day timing
            # also lands on the trace timeline and in the profile
            # gauges; the worker's span stack is empty, so the timer
            # keeps its historical name.
            with registry.span("runner.compute.day"):
                payload = _compute_day_payload(
                    source, inference, date, registry,
                )
        blob = _encode_payload(payload)
        # Drop the column now, not when the next day rebinds the name:
        # the next day's compute must not run on top of it.
        del payload
        blobs.append(blob)
        entries.append((offset, len(blob)))
        offset += len(blob)
    if registry is not None:
        registry.inc("runner.chunks")
        registry.inc(
            "pairtable.materialized",
            PairTable.materialize_count - materialized_before,
        )
    return _ship_chunk(blobs, entries), registry


# -- parent side ----------------------------------------------------------


def _chunk(items: Sequence, size: int) -> List[List]:
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _chunk_size(items: int, jobs: int) -> int:
    """How many items per chunk give each worker about
    ``_CHUNKS_PER_WORKER`` chunks."""
    workers = min(jobs, items)
    return max(1, -(-items // (workers * _CHUNKS_PER_WORKER)))


def _fold_future(
    future: concurrent.futures.Future,
    result: InferenceResult,
    store: Optional[ShardStore],
    result_key: Callable[[datetime.date], str],
    metrics: MetricsRegistry,
) -> Tuple[str, int]:
    """Fold one finished chunk and merge its worker registry; returns
    the chunk's transport and byte size.  Nothing here outlives the
    call, so the chunk's bytes go with its future."""
    try:
        shipped, worker_registry = future.result()
    except ReproError:
        raise
    except Exception as exc:
        raise ReproError(
            "delegation-inference worker failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    size = _fold_chunk(shipped, result, store, result_key)
    if worker_registry is not None:
        metrics.merge(worker_registry)
        metrics.inc("runner.worker_registries_merged")
    return shipped[0], size


def _compute_parallel(
    stream_factory: StreamFactory,
    config: InferenceConfig,
    as2org: Optional[As2OrgDataset],
    missing: Sequence[datetime.date],
    jobs: int,
    metrics: MetricsRegistry,
    store: Optional[ShardStore],
    result: InferenceResult,
    result_key: Callable[[datetime.date], str],
) -> Tuple[int, int]:
    """Fan the missing days out over a process pool.

    Chunks are taken in completion order, each folded into ``result``
    by :func:`_fold_chunk` as it arrives and merged with its worker's
    metrics registry (``None`` when the run is uninstrumented), so
    per-day timings and stream counters survive the fan-in.  Returns
    the bytes shipped through shared memory and pickled.  Workers
    mirror the parent's capabilities (a tracing parent gets per-lane
    worker traces, a profiling parent gets worker-side peak gauges); a
    store is forwarded as ``(directory, fingerprint)`` strings, so
    workers map shards themselves instead of the parent pickling
    inputs to them.  Any worker failure surfaces as
    :class:`ReproError`, and every exit path sweeps the run's
    shared-memory segments after the pool shuts down.
    """
    chunks = _chunk(missing, _chunk_size(len(missing), jobs))
    prefix = _shm_run_prefix()
    # One tracker, owned by this process and inherited by every
    # worker: worker-side segment registrations and parent-side
    # unlinks must reach the same tracker, or each side's exit prints
    # spurious leak warnings.
    resource_tracker.ensure_running()
    executor = concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(chunks)),
        initializer=_init_worker,
        initargs=(
            stream_factory, config, as2org, metrics.enabled,
            getattr(metrics, "trace", None) is not None,
            metrics.memory_profiling,
            str(store.directory) if store is not None else None,
            store.input_fingerprint if store is not None else None,
            prefix,
        ),
    )
    shipped_bytes = {"shm": 0, "bytes": 0}
    try:
        # The worker is looked up here, at submit time, so a wrapper
        # installed on the module attribute (tracing) runs in the pool.
        pending = {
            executor.submit(_worker_run_chunk, chunk) for chunk in chunks
        }
        while pending:
            done, pending = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED
            )
            while done:
                # Folded in completion order and popped, so no finished
                # chunk waits behind a slower one, and none outlives its
                # fold while the next is awaited.
                transport, size = _fold_future(
                    done.pop(), result, store, result_key, metrics
                )
                shipped_bytes[transport] += size
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
        swept = _sweep_segments(prefix)
        if swept:
            metrics.inc("fanin.segments_swept", swept)
    return shipped_bytes["shm"], shipped_bytes["bytes"]


def run_inference(
    stream_factory: StreamFactory,
    start: datetime.date,
    end: datetime.date,
    config: Optional[InferenceConfig] = None,
    *,
    as2org: Optional[As2OrgDataset] = None,
    step_days: int = 1,
    jobs: Optional[int] = None,
    metrics: MetricsRegistry = NULL,
    store_dir: Optional[Union[str, pathlib.Path]] = None,
) -> InferenceResult:
    """Run the full pipeline over ``[start, end)``, in parallel.

    ``stream_factory`` must be a zero-argument callable returning the
    :class:`RouteStream` to read (e.g. :class:`WorldStreamFactory`);
    with ``jobs > 1`` it must be picklable, and with ``store_dir`` set
    it must additionally expose a ``fingerprint()`` identifying the
    input data.  ``step_days`` samples every n-th day of the window.
    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` never spawns a
    process pool — the fan-out runs inline in this process, so a
    single-job cold run costs no more than the sequential path.  Pool
    runs return their results through shared memory (see the fan-in
    notes above); segments are unlinked the moment the parent
    attaches them and swept by prefix after every pool shutdown, so
    no exit path (completion, worker crash, interrupt) leaks one.

    ``metrics`` (when not the no-op default) receives nested stage
    spans (``runner.cache_probe`` / ``runner.compute`` /
    ``runner.consistency``; each day is folded inside the span that
    produced it), result-shard hit/miss
    counters, per-day compute timings (fanned back in from the worker
    registries), and the per-filter attrition counters shared with the
    sequential path.

    ``store_dir`` attaches the out-of-core shard store
    (:mod:`repro.store`), the one persistent tier.  Its input shards
    hold every day's aggregated pair table in the columnar layout,
    keyed only on the input fingerprint, so warm days are zero-copy
    maps — no stream build, no aggregation, near-flat per-process
    memory peaks — shared by every config.  Every computed day's v2
    bytes are also written through to the store's result shards,
    keyed on the config-dependent :func:`_cache_key`; a warm re-run
    maps each day's result directly and never runs the kernel.

    Returns an :class:`InferenceResult` byte-identical (in its
    ``daily`` delegations) to the sequential
    :meth:`DelegationInference.infer_range`, with ``runner_stats``
    describing the fan-out and result-shard behaviour.
    """
    began = time.perf_counter()
    config = config or InferenceConfig()
    if config.same_org_filter and as2org is None:
        raise ReproError("same_org_filter requires an as2org dataset")
    if step_days < 1:
        raise ReproError(f"step_days must be at least 1 (got {step_days})")
    resolved_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if resolved_jobs < 1:
        raise ReproError("jobs must be at least 1")
    dates = list(date_range(start, end, step_days))

    store: Optional[ShardStore] = None
    if store_dir is not None:
        fingerprint = getattr(stream_factory, "fingerprint", None)
        if fingerprint is None:
            raise ReproError(
                "the shard store requires a stream factory with a "
                "fingerprint() identifying its input data"
            )
        store = ShardStore(store_dir, fingerprint(), metrics=metrics)
        as2org_fp = (
            as2org.fingerprint() if config.same_org_filter else None
        )

    def result_key(date: datetime.date) -> str:
        return _cache_key(
            config, date, store.input_fingerprint, as2org_fp
        )

    metrics.inc("runner.days_total", len(dates))
    metrics.set_gauge("runner.jobs", resolved_jobs)
    materialized_before = PairTable.materialize_count
    # Every day is folded into ``result`` the moment its bytes arrive,
    # in whatever order that is: ``DailyDelegations.dates()`` sorts,
    # so the order cannot reach any output.
    result = InferenceResult(daily=DailyDelegations(), config=config)
    result.observation_dates.extend(dates)

    # Phase 1: fold result-shard hits.
    missing: List[datetime.date] = []
    if store is not None:
        with metrics.span("runner.cache_probe"):
            for date in dates:
                if not _fold_result_shard(store, result_key(date), result):
                    missing.append(date)
        metrics.inc("runner.cache.hits", len(dates) - len(missing))
        metrics.inc("runner.cache.misses", len(missing))
    else:
        missing = list(dates)

    # Phase 2: compute and fold the misses — fanned out or in-process.
    # Computed days are written through to the store as they are
    # folded: worker days as a buffer copy of their segment bytes.
    shm_bytes = pickled_bytes = 0
    with metrics.span("runner.compute"):
        if resolved_jobs > 1 and len(missing) > 1:
            shm_bytes, pickled_bytes = _compute_parallel(
                stream_factory, config, as2org, missing,
                resolved_jobs, metrics, store, result, result_key,
            )
        elif missing:
            # Single-job (or single-day) runs stay entirely in this
            # process: forking a pool to feed one worker can only add
            # spawn and pickling overhead on top of the same
            # sequential work.
            source = _DaySource(stream_factory, store, metrics)
            inference = DelegationInference(config, as2org)
            for date in missing:
                with metrics.span("day"):
                    payload = _compute_day_payload(
                        source, inference, date, metrics,
                    )
                if store is not None:
                    store.write_result(
                        result_key(date), _encode_payload(payload)
                    )
                _fold_day(result, payload)
    # Surface the transport split.  A run that should be zero-copy but
    # shows ``fanin.pickled_kb`` (or a climbing
    # ``pairtable.materialized``) regressed to the copying transport —
    # exactly what ``repro history diff`` is meant to catch.
    metrics.set_gauge("fanin.shm_kb", shm_bytes // 1024)
    metrics.set_gauge("fanin.pickled_kb", pickled_bytes // 1024)
    metrics.inc(
        "pairtable.materialized",
        PairTable.materialize_count - materialized_before,
    )
    # Counted before rule (v) fills any gap: what the days themselves
    # inferred.
    delegations_total = sum(result.daily.count_on(date) for date in dates)
    if config.consistency_rule is not None:
        with metrics.span("runner.consistency"):
            result.daily = fill_gaps(
                result.daily, config.consistency_rule,
                result.observation_dates, metrics=metrics,
            )
    record_pipeline_counters(metrics, result, delegations_total)

    result.runner_stats = RunnerStats(
        jobs=resolved_jobs,
        days_total=len(dates),
        days_from_cache=len(dates) - len(missing),
        days_computed=len(missing),
        elapsed_seconds=time.perf_counter() - began,
        store_dir=str(store.directory) if store is not None else None,
    )
    metrics.observe("runner", result.runner_stats.elapsed_seconds)
    logger.info(
        "runner: %d days (%d cached, %d computed) with %d jobs in %.2fs",
        len(dates), len(dates) - len(missing), len(missing),
        resolved_jobs, result.runner_stats.elapsed_seconds,
    )
    return result
