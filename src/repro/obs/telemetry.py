"""Quantile-grade telemetry: latency histograms, windows, Prometheus.

Every timer of a :class:`~repro.obs.metrics.MetricsRegistry` is one
:class:`HistogramStats`: count, exact sum, min and max *and* the
distribution, so a stage that doubled and a p99 that did show up in
the same record.  Everything here keeps the property the whole
observability stack is built on: **merge is associative and
commutative**, so worker registries fan in through the runner pool in
any completion order and the result equals one registry that saw
every observation sequentially.

- :class:`HistogramStats` — fixed log-scale buckets (factor-2 bounds
  from 1 µs), sparse storage, element-wise merge, exact min/max, and
  *exact-bucket* quantile estimators: a quantile is always reported as
  the upper bound of the bucket holding that rank, never interpolated,
  so the estimate is deterministic, order-independent, and monotone in
  the bucket index.
- :class:`SlidingWindow` — a per-second ring buffer of request
  outcomes behind the serving layer's ``/health`` rollup (qps, error
  rate, p99 over the trailing 1 m / 5 m).
- :func:`to_prometheus` / :func:`write_prometheus` — the standard
  text exposition format over a registry snapshot: counters become
  ``*_total``, timers become real Prometheus histograms (cumulative
  ``_bucket{le=…}`` plus ``_sum``/``_count``).
- :func:`parse_prometheus_text` — a deliberately strict parser used
  by CI and the tests to validate everything the server exposes: no
  duplicate series, declared types, cumulative bucket counts, and
  ``+Inf`` agreeing with ``_count``.
"""

from __future__ import annotations

import bisect
import math
import pathlib
import re
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import TelemetryError

PathLike = Union[str, pathlib.Path]

#: The bucket scheme is fixed (never configurable per registry): every
#: histogram in every process shares the same bounds, which is what
#: makes merge a plain element-wise add.  Factor-2 bounds from 1 µs
#: cover 1 µs .. ~6.4 days in 40 finite buckets; index 40 is the
#: overflow (``+Inf``) bucket.
HISTOGRAM_BASE_SECONDS = 1e-6
HISTOGRAM_FACTOR = 2.0
HISTOGRAM_FINITE_BUCKETS = 40

#: Upper bounds of the finite buckets; bucket ``i`` holds observations
#: in ``(BUCKET_BOUNDS[i-1], BUCKET_BOUNDS[i]]`` (bucket 0 additionally
#: absorbs everything at or below the base, zero and negative values
#: included).
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    HISTOGRAM_BASE_SECONDS * HISTOGRAM_FACTOR ** i
    for i in range(HISTOGRAM_FINITE_BUCKETS)
)

#: The quantiles every serialization reports.
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50_seconds", 0.50),
    ("p90_seconds", 0.90),
    ("p99_seconds", 0.99),
    ("p999_seconds", 0.999),
)


def bucket_index(seconds: float) -> int:
    """The bucket holding one observation (``le`` semantics).

    ``bisect_left`` over the shared bounds returns the first bucket
    whose upper bound is >= the value — exactly Prometheus's
    cumulative ``le`` convention — and the overflow index
    (:data:`HISTOGRAM_FINITE_BUCKETS`) for values beyond the last
    finite bound.
    """
    if seconds <= HISTOGRAM_BASE_SECONDS:
        return 0
    return bisect.bisect_left(BUCKET_BOUNDS, seconds)


def bucket_upper_bound(index: int) -> float:
    """The finite upper bound of bucket ``index``.

    The overflow bucket has no finite bound; quantiles that land in it
    are clamped to the last finite bound so they can be serialized
    (Prometheus exposition still emits a true ``+Inf`` bucket).
    """
    if index >= HISTOGRAM_FINITE_BUCKETS:
        return BUCKET_BOUNDS[-1]
    return BUCKET_BOUNDS[index]


class HistogramStats:
    """A mergeable log-scale latency distribution: the one record kept
    per timer name.

    Sparse bucket storage (index → count) keeps the pickled payload
    proportional to the number of *distinct magnitudes* observed, not
    the observation count.  Every field merges exactly: bucket counts
    and the integer-nanosecond sum add (a running float sum is not
    associative), min and max take the min and max.  So merge is
    associative and commutative with the empty histogram as identity
    — pinned down by ``tests/obs/test_merge_properties.py``.  An empty
    histogram carries ``min_seconds = inf`` (the identity of ``min``)
    but serializes it as ``0.0``, never as JSON ``Infinity``.
    """

    __slots__ = (
        "count", "total_ns", "buckets", "min_seconds", "max_seconds",
    )

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.buckets: Dict[int, int] = {}
        self.min_seconds = math.inf
        self.max_seconds = -math.inf

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def observe(self, seconds: float) -> None:
        index = bucket_index(seconds)
        self.count += 1
        self.total_ns += round(seconds * 1e9)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def merge(self, other: "HistogramStats") -> "HistogramStats":
        self.count += other.count
        self.total_ns += other.total_ns
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        if other.min_seconds < self.min_seconds:
            self.min_seconds = other.min_seconds
        if other.max_seconds > self.max_seconds:
            self.max_seconds = other.max_seconds
        return self

    def quantile(self, q: float) -> float:
        """Exact-bucket quantile: the upper bound of the bucket that
        holds the ``ceil(q * count)``-th smallest observation."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                return bucket_upper_bound(index)
        return bucket_upper_bound(max(self.buckets))

    def cumulative_buckets(self) -> List[Tuple[int, int]]:
        """``(bucket index, cumulative count)`` pairs, ascending."""
        pairs: List[Tuple[int, int]] = []
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            pairs.append((index, cumulative))
        return pairs

    def to_json(self) -> dict:
        payload = {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds if self.count else 0.0,
            "total_ns": self.total_ns,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }
        for name, q in QUANTILES:
            payload[name] = self.quantile(q)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "HistogramStats":
        stats = cls()
        stats.count = int(payload["count"])
        stats.total_ns = int(payload["total_ns"])
        stats.buckets = {
            int(index): int(count)
            for index, count in payload["buckets"].items()
        }
        if stats.count:
            stats.min_seconds = float(payload["min_seconds"])
            stats.max_seconds = float(payload["max_seconds"])
        return stats

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"<HistogramStats n={self.count} "
            f"p99={self.quantile(0.99):.6f}s>"
        )


class SlidingWindow:
    """A per-second ring buffer of request outcomes.

    Each slot aggregates one wall-clock second (count, errors, sparse
    latency buckets); :meth:`snapshot` merges the slots inside a
    trailing window into qps / error-rate / p99.  The ring is bounded
    by ``span_seconds`` slots regardless of traffic, so an always-on
    server pays a fixed few kilobytes for its ``/health`` rollup.
    """

    __slots__ = ("_span", "_slots")

    def __init__(self, span_seconds: int = 300):
        self._span = int(span_seconds)
        #: slot := [second stamp, requests, errors, {bucket: count}]
        self._slots: List[Optional[list]] = [None] * self._span

    @property
    def span_seconds(self) -> int:
        return self._span

    def record(
        self, now: float, seconds: float, *, error: bool = False
    ) -> None:
        stamp = int(now)
        slot = self._slots[stamp % self._span]
        if slot is None or slot[0] != stamp:
            slot = [stamp, 0, 0, {}]
            self._slots[stamp % self._span] = slot
        slot[1] += 1
        if error:
            slot[2] += 1
        index = bucket_index(seconds)
        slot[3][index] = slot[3].get(index, 0) + 1

    def snapshot(self, now: float, window_seconds: int) -> dict:
        """Roll the trailing ``window_seconds`` up into one document."""
        window = min(int(window_seconds), self._span)
        floor = int(now) - window
        requests = errors = 0
        merged = HistogramStats()
        for slot in self._slots:
            if slot is None or not floor < slot[0] <= int(now):
                continue
            requests += slot[1]
            errors += slot[2]
            for index, count in slot[3].items():
                merged.buckets[index] = (
                    merged.buckets.get(index, 0) + count
                )
        merged.count = requests
        return {
            "windowSeconds": window,
            "requests": requests,
            "qps": round(requests / window, 3) if window else 0.0,
            "errors": errors,
            "errorRate": round(errors / requests, 6) if requests else 0.0,
            "p99Seconds": round(merged.quantile(0.99), 9),
        }


# -- Prometheus text exposition -------------------------------------------


_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)


def mangle_metric_name(name: str, suffix: str = "") -> str:
    """One dotted repro metric name → one Prometheus metric name.

    Rules (documented in DESIGN §5.7): every character outside
    ``[a-zA-Z0-9_:]`` becomes ``_`` (dots included), the result is
    prefixed ``repro_`` (which also guarantees a legal leading
    character), and the unit/kind suffix (``_total``, ``_seconds``) is
    appended last.
    """
    return "repro_" + _METRIC_CHARS.sub("_", name) + suffix


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == math.inf else f"{bound:.12g}"


def to_prometheus(snapshot: dict) -> str:
    """Render one registry snapshot (``MetricsRegistry.to_json()``)
    as Prometheus text exposition format 0.0.4.

    - counters → ``repro_<name>_total`` (counter),
    - gauges → ``repro_<name>`` (gauge),
    - timers → ``repro_<name>_seconds`` (histogram): one cumulative
      ``_bucket`` line per *occupied* bucket (a legal subset of the
      full bound list) plus ``+Inf``, ``_sum`` and ``_count``.

    Name mangling can collide (``a.b`` and ``a_b``); colliding
    counters are summed and colliding gauges keep the maximum, so the
    output never contains duplicate series.
    """
    lines: List[str] = []
    counters: Dict[str, float] = {}
    for name, value in (snapshot.get("counters") or {}).items():
        mangled = mangle_metric_name(name, "_total")
        counters[mangled] = counters.get(mangled, 0) + value
    for mangled in sorted(counters):
        lines.append(f"# TYPE {mangled} counter")
        lines.append(f"{mangled} {_format_value(counters[mangled])}")
    gauges: Dict[str, float] = {}
    for name, value in (snapshot.get("gauges") or {}).items():
        mangled = mangle_metric_name(name)
        current = gauges.get(mangled)
        if current is None or value > current:
            gauges[mangled] = value
    for mangled in sorted(gauges):
        lines.append(f"# TYPE {mangled} gauge")
        lines.append(f"{mangled} {_format_value(gauges[mangled])}")
    for name, payload in sorted((snapshot.get("timers") or {}).items()):
        mangled = mangle_metric_name(name, "_seconds")
        stats = HistogramStats.from_json(payload)
        lines.append(f"# TYPE {mangled} histogram")
        for index, cumulative in stats.cumulative_buckets():
            if index >= HISTOGRAM_FINITE_BUCKETS:
                continue  # the +Inf line below carries overflow
            bound = _format_bound(bucket_upper_bound(index))
            lines.append(f'{mangled}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{mangled}_bucket{{le="+Inf"}} {stats.count}')
        lines.append(f"{mangled}_sum {_format_value(stats.total_seconds)}")
        lines.append(f"{mangled}_count {stats.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry, path: PathLike) -> str:
    """Write a registry's snapshot as a Prometheus text file
    (the ``--prom-out`` artifact); returns the path written."""
    path = pathlib.Path(path)
    if path.parent != pathlib.Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus(registry.to_json()), encoding="utf-8")
    return str(path)


def _parse_labels(text: Optional[str]) -> Tuple[Tuple[str, str], ...]:
    if not text:
        return ()
    labels = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep or not value.startswith('"') or not value.endswith('"'):
            raise TelemetryError(f"malformed label pair: {part!r}")
        labels.append((name.strip(), value[1:-1]))
    return tuple(labels)


def _family_of(name: str, declared: Dict[str, str]) -> Optional[str]:
    """The declared family a sample belongs to, suffixes stripped."""
    if name in declared:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in declared:
            return name[: -len(suffix)]
    return None


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse + validate Prometheus text exposition, strictly.

    Returns ``{family: {"type": ..., "samples": {(name, labels):
    value}}}``.  Raises :class:`~repro.errors.TelemetryError` on any
    of: an unparseable line, a sample without a declared ``# TYPE``,
    a duplicate series, a duplicate type declaration, histogram bucket
    counts that are not cumulative in ``le`` order, a histogram
    missing its ``+Inf`` bucket or ``_sum``/``_count`` series, or a
    ``+Inf`` bucket disagreeing with ``_count``.
    """
    declared: Dict[str, str] = {}
    families: Dict[str, dict] = {}
    seen: set = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise TelemetryError(
                        f"line {number}: malformed TYPE comment: {raw!r}"
                    )
                _hash, _type, family, kind = parts
                if kind not in ("counter", "gauge", "histogram",
                                "summary", "untyped"):
                    raise TelemetryError(
                        f"line {number}: unknown metric type {kind!r}"
                    )
                if family in declared:
                    raise TelemetryError(
                        f"line {number}: duplicate TYPE for {family}"
                    )
                declared[family] = kind
                families[family] = {"type": kind, "samples": {}}
            continue  # HELP and other comments pass through
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise TelemetryError(
                f"line {number}: unparseable sample: {raw!r}"
            )
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        raw_value = match.group("value")
        try:
            value = (
                math.inf if raw_value == "+Inf"
                else -math.inf if raw_value == "-Inf"
                else float(raw_value)
            )
        except ValueError:
            raise TelemetryError(
                f"line {number}: bad sample value {raw_value!r}"
            )
        family = _family_of(name, declared)
        if family is None:
            raise TelemetryError(
                f"line {number}: sample {name!r} has no # TYPE declaration"
            )
        series = (name, labels)
        if series in seen:
            raise TelemetryError(
                f"line {number}: duplicate series {name}"
                f"{dict(labels) if labels else ''}"
            )
        seen.add(series)
        families[family]["samples"][series] = value
    for family, data in families.items():
        if data["type"] == "histogram":
            _validate_histogram_family(family, data["samples"])
    return families


def _validate_histogram_family(
    family: str, samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]
) -> None:
    buckets: List[Tuple[float, float]] = []
    count = total = None
    for (name, labels), value in samples.items():
        if name == f"{family}_bucket":
            bounds = dict(labels)
            if "le" not in bounds:
                raise TelemetryError(
                    f"{family}: bucket sample without an le label"
                )
            le = (
                math.inf if bounds["le"] == "+Inf"
                else float(bounds["le"])
            )
            buckets.append((le, value))
        elif name == f"{family}_count":
            count = value
        elif name == f"{family}_sum":
            total = value
    if count is None or total is None:
        raise TelemetryError(
            f"{family}: histogram missing _sum or _count"
        )
    if not buckets:
        raise TelemetryError(f"{family}: histogram has no buckets")
    buckets.sort(key=lambda pair: pair[0])
    if buckets[-1][0] != math.inf:
        raise TelemetryError(f"{family}: histogram missing +Inf bucket")
    previous = 0.0
    for le, cumulative in buckets:
        if cumulative < previous:
            raise TelemetryError(
                f"{family}: bucket counts not cumulative at "
                f"le={_format_bound(le)} ({cumulative} < {previous:g})"
            )
        previous = cumulative
    if buckets[-1][1] != count:
        raise TelemetryError(
            f"{family}: +Inf bucket ({buckets[-1][1]:g}) disagrees "
            f"with _count ({count:g})"
        )
    if count > 0 and total < 0:
        raise TelemetryError(f"{family}: negative _sum with samples")
