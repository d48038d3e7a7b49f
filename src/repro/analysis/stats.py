"""Statistical helpers: box statistics and rank tests.

The paper's Fig. 1 is box plots; its "no statistically significant
difference in pricing across the regions" claim is a rank test across
the three region samples.  scipy provides the exact tests when
available; a self-contained fallback implements the Kruskal–Wallis
H-test with a chi-square approximation so the library also works
without the optional ``analysis`` extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus mean and count (a box plot's data)."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile on pre-sorted values."""
    if not sorted_values:
        raise ValueError("cannot take quantile of empty data")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def box_stats(values: Sequence[float]) -> BoxStats:
    """Compute box-plot statistics of ``values``."""
    if not values:
        raise ValueError("cannot summarize empty data")
    ordered = sorted(values)
    return BoxStats(
        count=len(ordered),
        minimum=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        maximum=ordered[-1],
        mean=sum(ordered) / len(ordered),
    )


def coefficient_of_variation(values: Sequence[float]) -> float:
    """stdev/mean — the consolidation detector's variance measure."""
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance) / mean


def _ranks(values: Sequence[float]) -> List[float]:
    """Midranks (ties averaged)."""
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(indexed):
        j = i
        while (
            j + 1 < len(indexed)
            and values[indexed[j + 1]] == values[indexed[i]]
        ):
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[indexed[k]] = midrank
        i = j + 1
    return ranks


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function via the regularized upper gamma."""
    if x <= 0:
        return 1.0
    return _upper_gamma_regularized(df / 2.0, x / 2.0)


def _upper_gamma_regularized(s: float, x: float) -> float:
    """Q(s, x) by series/continued fraction (Numerical-Recipes style)."""
    if x < s + 1.0:
        # Lower series.
        term = 1.0 / s
        total = term
        k = s
        for _ in range(500):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-12:
                break
        lower = total * math.exp(-x + s * math.log(x) - math.lgamma(s))
        return max(0.0, 1.0 - lower)
    # Continued fraction for the upper tail.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> Tuple[float, float]:
    """Kruskal–Wallis H-test: returns (H, p-value).

    Uses scipy when importable; otherwise the built-in implementation
    (midranks, tie correction, chi-square approximation).
    """
    groups = [list(g) for g in groups if g]
    if len(groups) < 2:
        raise ValueError("need at least two non-empty groups")
    try:
        from scipy import stats as scipy_stats

        result = scipy_stats.kruskal(*groups)
        return float(result.statistic), float(result.pvalue)
    except ImportError:  # pragma: no cover - exercised without scipy
        pass
    pooled: List[float] = []
    for group in groups:
        pooled.extend(group)
    n = len(pooled)
    ranks = _ranks(pooled)
    h = 0.0
    offset = 0
    for group in groups:
        size = len(group)
        rank_sum = sum(ranks[offset:offset + size])
        h += rank_sum * rank_sum / size
        offset += size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    # Tie correction.
    counts: Dict[float, int] = {}
    for value in pooled:
        counts[value] = counts.get(value, 0) + 1
    tie_term = sum(c ** 3 - c for c in counts.values())
    correction = 1.0 - tie_term / float(n ** 3 - n) if n > 1 else 1.0
    if correction > 0:
        h /= correction
    p_value = _chi2_sf(h, len(groups) - 1)
    return h, p_value
