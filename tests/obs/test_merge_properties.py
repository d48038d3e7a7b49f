"""Property-based tests for the merge algebra of everything that fans in.

Worker registries, the timers inside them (``HistogramStats``) and
their trace buffers fold back into the parent in whatever order the
pool finishes chunks.  So for each of the three types, merge must be
commutative and associative with the empty value as identity, and N
worker merges, in either order, must equal one value that recorded
every observation sequentially.  One harness checks those laws on all
three and compares exact state: timer sums are integer nanoseconds and
min/max are exact, so no float rounding hides a grouping difference.
The type-specific properties (quantiles, bucket bounds, trace export)
follow the harness.
"""

import math
from typing import Callable, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, TraceBuffer
from repro.obs.telemetry import (
    BUCKET_BOUNDS,
    HISTOGRAM_FINITE_BUCKETS,
    HistogramStats,
    bucket_index,
    bucket_upper_bound,
)


def _floats(low, high):
    return st.floats(
        min_value=low, max_value=high,
        allow_nan=False, allow_infinity=False,
    )


_NAMES = st.sampled_from(["a", "b", "c.d", "runner.day"])

#: One registry event: (kind, metric name, value).
_EVENTS = st.one_of(
    st.tuples(st.just("inc"), _NAMES,
              st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("gauge"), _NAMES, _floats(0.0, 1e6)),
    st.tuples(st.just("observe"), _NAMES, _floats(0.0, 1e3)),
)

#: Latency observations spanning the whole bucket range, sub-µs and
#: overflow values included.
_SECONDS = _floats(0.0, 1e7)

#: One trace span: (name, start, duration, failed).
_SPANS = st.tuples(
    st.sampled_from(["runner", "runner.day", "rdap.sweep"]),
    _floats(0.0, 1e6),
    _floats(0.0, 1e3),
    st.booleans(),
)


def _record_registry(registry, events):
    for kind, name, value in events:
        if kind == "inc":
            registry.inc(name, value)
        elif kind == "gauge":
            registry.set_gauge(name, value)
        else:
            registry.observe(name, value)
    return registry


def _record_histogram(stats, values):
    for value in values:
        stats.observe(value)
    return stats


def _record_trace(buffer, shard):
    # A buffer records under its own lane; one buffer switching lanes
    # is the sequential run that every worker's spans went into.
    buffer.lane, spans = shard
    for name, start, duration, failed in spans:
        buffer.add(name, start, duration, failed=failed)
    return buffer


class Algebra(NamedTuple):
    shard: st.SearchStrategy           # what one worker records
    new: Callable[[], object]          # the empty value
    record: Callable[[object, object], object]
    state: Callable[[object], object]  # exact comparable state


REGISTRY = Algebra(
    st.lists(_EVENTS, max_size=30),
    MetricsRegistry,
    _record_registry,
    lambda registry: registry.to_json(),
)
HISTOGRAM = Algebra(
    st.lists(_SECONDS, max_size=60),
    HistogramStats,
    _record_histogram,
    lambda stats: {
        slot: getattr(stats, slot) for slot in HistogramStats.__slots__
    },
)
TRACE = Algebra(
    st.tuples(st.sampled_from(["main", "worker-1", "worker-2"]),
              st.lists(_SPANS, max_size=15)),
    TraceBuffer,
    _record_trace,
    lambda buffer: sorted(
        (e.name, e.start, e.duration, e.lane, e.failed, e.pid)
        for e in buffer.events()
    ),
)

_ALGEBRAS = pytest.mark.parametrize(
    "algebra", [REGISTRY, HISTOGRAM, TRACE],
    ids=["registry", "histogram", "trace"],
)


def _build(algebra, shard):
    return algebra.record(algebra.new(), shard)


def _assert_associative(algebra, a, b, c):
    left = _build(algebra, a).merge(
        _build(algebra, b).merge(_build(algebra, c))
    )
    right = _build(algebra, a).merge(_build(algebra, b)).merge(
        _build(algebra, c)
    )
    assert algebra.state(left) == algebra.state(right)


@_ALGEBRAS
@given(data=st.data())
def test_merge_is_commutative(algebra, data):
    a, b = data.draw(algebra.shard), data.draw(algebra.shard)
    ab = _build(algebra, a).merge(_build(algebra, b))
    ba = _build(algebra, b).merge(_build(algebra, a))
    assert algebra.state(ab) == algebra.state(ba)


@_ALGEBRAS
@given(data=st.data())
def test_merge_is_associative(algebra, data):
    _assert_associative(algebra, *(data.draw(algebra.shard) for _ in "abc"))


def test_histogram_sum_is_exact_under_regrouping():
    # A float running sum groups these as 16777217.0 vs 16777216.9 s.
    _assert_associative(
        HISTOGRAM, [0.35], [1.349999999627471], [6777216.0, 9999999.25]
    )


@_ALGEBRAS
@given(data=st.data())
def test_empty_is_identity(algebra, data):
    shard = data.draw(algebra.shard)
    expected = algebra.state(_build(algebra, shard))
    merged = _build(algebra, shard).merge(algebra.new())
    assert algebra.state(merged) == expected
    absorbed = algebra.new().merge(_build(algebra, shard))
    assert algebra.state(absorbed) == expected


@_ALGEBRAS
@given(data=st.data())
def test_merge_of_workers_equals_sequential(algebra, data):
    """N worker values merged, in either order, == one sequential value.

    This is exactly the runner's fan-in: each shard of days records
    into its own registry (timers and trace included); merging them in
    any order the pool finishes must match one run over every shard.
    """
    shards = data.draw(st.lists(algebra.shard, min_size=1, max_size=6))
    forward, backward, sequential = (algebra.new() for _ in range(3))
    for shard in shards:
        forward.merge(_build(algebra, shard))
        algebra.record(sequential, shard)
    for shard in reversed(shards):
        backward.merge(_build(algebra, shard))
    assert algebra.state(forward) == algebra.state(sequential)
    assert algebra.state(backward) == algebra.state(sequential)


# -- histogram quantiles and buckets ----------------------------------------


@given(st.lists(_SECONDS, max_size=60))
def test_quantiles_are_monotone(values):
    stats = _record_histogram(HistogramStats(), values)
    quantiles = [stats.quantile(q) for q in (0.5, 0.9, 0.99, 0.999)]
    assert quantiles == sorted(quantiles)


@given(st.lists(_SECONDS, min_size=1, max_size=60),
       st.floats(min_value=0.01, max_value=0.999))
def test_quantile_matches_rank_bucket(values, q):
    """Exact-bucket oracle: the estimate equals the upper bound of
    the bucket holding the ``ceil(q*n)``-th smallest observation
    (overflow clamped to the last finite bound), and is always one of
    the shared bounds — never an interpolated value."""
    stats = _record_histogram(HistogramStats(), values)
    rank = max(1, math.ceil(q * stats.count))
    rank_bucket = sorted(bucket_index(v) for v in values)[rank - 1]
    estimate = stats.quantile(q)
    assert estimate == bucket_upper_bound(rank_bucket)
    assert estimate in BUCKET_BOUNDS


@given(_SECONDS)
def test_bucket_index_respects_le_bounds(value):
    index = bucket_index(value)
    assert 0 <= index <= HISTOGRAM_FINITE_BUCKETS
    if index < HISTOGRAM_FINITE_BUCKETS:
        assert value <= bucket_upper_bound(index)
    if 0 < index:
        assert value > BUCKET_BOUNDS[index - 1]


# -- trace export ------------------------------------------------------------

_TRACE_SHARDS = st.lists(TRACE.shard, min_size=1, max_size=5)


@given(_TRACE_SHARDS)
def test_merge_order_is_irrelevant(shards):
    forward, backward = TraceBuffer("main"), TraceBuffer("main")
    for shard in shards:
        forward.merge(_build(TRACE, shard))
    for shard in reversed(shards):
        backward.merge(_build(TRACE, shard))
    assert forward.to_chrome_json() == backward.to_chrome_json()


@given(_TRACE_SHARDS)
def test_merged_length_is_sum_of_shards(shards):
    merged = TraceBuffer("main")
    for shard in shards:
        merged.merge(_build(TRACE, shard))
    assert len(merged) == sum(len(spans) for _lane, spans in shards)
