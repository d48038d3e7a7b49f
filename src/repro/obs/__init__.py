"""Pipeline observability: metrics, traces, profiles, manifests, history.

- :mod:`~repro.obs.metrics` — picklable, mergeable
  :class:`MetricsRegistry` (counters / gauges / timers), nestable
  stage :class:`Span` timings, and the shared no-op :data:`NULL`
  registry every instrumented path defaults to,
- :mod:`~repro.obs.telemetry` — :class:`HistogramStats`, the one
  record every timer keeps (count, exact sum, min, max and
  fixed-bucket quantiles, all merged exactly), the
  :class:`SlidingWindow` serve rollup, and the Prometheus text
  exposition (:func:`to_prometheus`) with its strict
  parser (:func:`parse_prometheus_text`),
- :mod:`~repro.obs.trace` — per-span timeline events
  (:class:`TraceBuffer` / :class:`TracingRegistry`) exported as
  Chrome trace-event JSON (``--trace-out``, Perfetto-loadable) with a
  terminal summarizer,
- :mod:`~repro.obs.profile` — opt-in ``tracemalloc``-backed per-stage
  peak-memory gauges (``--profile-mem`` → ``profile.*`` in the
  manifest),
- :mod:`~repro.obs.manifest` — the :class:`RunManifest` JSON artifact
  (config hash, input fingerprints, per-stage attrition, cache
  accounting, timings) plus its loader and pretty-printer,
- :mod:`~repro.obs.history` — the append-only :class:`RunHistory`
  store turning recorded manifests into regression baselines
  (``repro history record/list/diff/check``).
"""

from repro.obs.history import (
    DEFAULT_HISTORY_PATH,
    HISTORY_SCHEMA,
    RunHistory,
    find_regressions,
    parse_percent,
    render_diff,
    render_list,
    summarize_manifest,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    StageRecord,
    config_hash,
    load_manifest,
    render_manifest,
)
from repro.obs.metrics import (
    NULL,
    MetricsRegistry,
    NullRegistry,
    Span,
)
from repro.obs.telemetry import (
    HistogramStats,
    SlidingWindow,
    bucket_index,
    bucket_upper_bound,
    mangle_metric_name,
    parse_prometheus_text,
    to_prometheus,
    write_prometheus,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceBuffer,
    TraceEvent,
    TracingRegistry,
    load_trace,
    summarize_trace,
)

__all__ = [
    "DEFAULT_HISTORY_PATH",
    "HISTORY_SCHEMA",
    "HistogramStats",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL",
    "NullRegistry",
    "RunHistory",
    "RunManifest",
    "SlidingWindow",
    "Span",
    "StageRecord",
    "TRACE_SCHEMA",
    "TraceBuffer",
    "TraceEvent",
    "TracingRegistry",
    "bucket_index",
    "bucket_upper_bound",
    "config_hash",
    "find_regressions",
    "load_manifest",
    "load_trace",
    "mangle_metric_name",
    "parse_percent",
    "parse_prometheus_text",
    "render_diff",
    "render_list",
    "render_manifest",
    "summarize_manifest",
    "summarize_trace",
    "to_prometheus",
    "write_prometheus",
]
