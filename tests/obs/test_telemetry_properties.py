"""Property-based tests for ``HistogramStats`` merge algebra.

The distribution dimension must obey the exact algebra the rest of
:mod:`repro.obs.metrics` does — merge associative and commutative with
the empty histogram as identity, N worker merges equal to one
sequential registry — because worker histograms fan in through the
same :meth:`MetricsRegistry.merge` path as counters.  On top of that,
the exact-bucket quantile estimator must be monotone (p50 <= p90 <=
p99 <= p999) and every quantile must be a real bucket bound that
contains the requested rank.
"""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs.telemetry import (
    BUCKET_BOUNDS,
    HISTOGRAM_FINITE_BUCKETS,
    HistogramStats,
    bucket_index,
    bucket_upper_bound,
)

#: Latency observations spanning the whole bucket range, sub-µs and
#: overflow values included.
_SECONDS = st.floats(
    min_value=0.0, max_value=1e7,
    allow_nan=False, allow_infinity=False,
)
_OBSERVATIONS = st.lists(_SECONDS, max_size=60)


def _histogram(values) -> HistogramStats:
    stats = HistogramStats()
    for value in values:
        stats.observe(value)
    return stats


def _canon(stats: HistogramStats) -> dict:
    # Every field is an exact integer (the sum is in nanoseconds), so
    # merges must agree exactly, whatever the grouping.
    return {
        "count": stats.count,
        "total_ns": stats.total_ns,
        "buckets": dict(stats.buckets),
    }


@given(_OBSERVATIONS, _OBSERVATIONS)
def test_merge_is_commutative(values_a, values_b):
    ab = _histogram(values_a).merge(_histogram(values_b))
    ba = _histogram(values_b).merge(_histogram(values_a))
    assert _canon(ab) == _canon(ba)


@given(_OBSERVATIONS, _OBSERVATIONS, _OBSERVATIONS)
# A float running sum groups these as 16777217.0 vs 16777216.9 s.
@example([0.35], [1.349999999627471], [6777216.0, 9999999.25])
def test_merge_is_associative(values_a, values_b, values_c):
    left = _histogram(values_a).merge(
        _histogram(values_b).merge(_histogram(values_c))
    )
    right = _histogram(values_a).merge(_histogram(values_b)).merge(
        _histogram(values_c)
    )
    assert _canon(left) == _canon(right)


@given(_OBSERVATIONS)
def test_empty_histogram_is_identity(values):
    merged = _histogram(values).merge(HistogramStats())
    assert _canon(merged) == _canon(_histogram(values))
    absorbed = HistogramStats().merge(_histogram(values))
    assert _canon(absorbed) == _canon(_histogram(values))


@given(st.lists(_OBSERVATIONS, min_size=1, max_size=6))
def test_merge_of_workers_equals_sequential(shards):
    """N worker histograms merged == one that saw every observation.

    The runner's fan-in for distributions: each worker chunk ships a
    histogram inside its registry; the merged p99 must not depend on
    which process observed which day.
    """
    merged = HistogramStats()
    for shard in shards:
        merged.merge(_histogram(shard))
    sequential = _histogram([v for shard in shards for v in shard])
    assert _canon(merged) == _canon(sequential)
    assert merged.quantile(0.99) == sequential.quantile(0.99)


@given(_OBSERVATIONS)
def test_quantiles_are_monotone(values):
    stats = _histogram(values)
    quantiles = [
        stats.quantile(q) for q in (0.5, 0.9, 0.99, 0.999)
    ]
    assert quantiles == sorted(quantiles)


@given(st.lists(_SECONDS, min_size=1, max_size=60),
       st.floats(min_value=0.01, max_value=0.999))
def test_quantile_matches_rank_bucket(values, q):
    """Exact-bucket oracle: the estimate equals the upper bound of
    the bucket holding the ``ceil(q*n)``-th smallest observation
    (overflow clamped to the last finite bound), and is always one of
    the shared bounds — never an interpolated value."""
    stats = _histogram(values)
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
