"""Unit tests for the statistics helpers."""

import random

import pytest

from repro.analysis.stats import (
    BoxStats,
    box_stats,
    coefficient_of_variation,
    kruskal_wallis,
)


class TestBoxStats:
    def test_simple(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.count == 5
        assert stats.minimum == 1.0 and stats.maximum == 5.0
        assert stats.median == 3.0
        assert stats.q1 == 2.0 and stats.q3 == 4.0
        assert stats.mean == 3.0

    def test_single_value(self):
        stats = box_stats([7.0])
        assert stats.median == stats.q1 == stats.q3 == 7.0

    def test_even_count_interpolates(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.median == 2.5

    def test_unsorted_input(self):
        assert box_stats([5.0, 1.0, 3.0]).median == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])


class TestCV:
    def test_zero_variance(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        cv = coefficient_of_variation([8.0, 12.0])
        assert cv == pytest.approx((8.0 ** 0.5) / 10.0, rel=1e-9)

    def test_degenerate(self):
        assert coefficient_of_variation([1.0]) == 0.0
        assert coefficient_of_variation([]) == 0.0


class TestKruskalWallis:
    def test_identical_groups_not_significant(self):
        rng = random.Random(1)
        groups = [
            [rng.gauss(10, 1) for _ in range(100)] for _ in range(3)
        ]
        _h, p = kruskal_wallis(groups)
        assert p > 0.05

    def test_shifted_group_significant(self):
        rng = random.Random(2)
        a = [rng.gauss(10, 1) for _ in range(100)]
        b = [rng.gauss(14, 1) for _ in range(100)]
        _h, p = kruskal_wallis([a, b])
        assert p < 0.001

    def test_requires_two_groups(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0, 2.0]])
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0], []])

    def test_fallback_matches_scipy(self):
        """The pure-python fallback tracks scipy's H and p closely."""
        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.analysis import stats as stats_module

        rng = random.Random(3)
        groups = [
            [rng.gauss(10 + shift, 2) for _ in range(60)]
            for shift in (0.0, 0.3, 1.0)
        ]
        expected = scipy_stats.kruskal(*groups)
        # Force the fallback by hiding scipy from the module.
        pooled = []
        for g in groups:
            pooled.extend(g)
        ranks = stats_module._ranks(pooled)
        h = 0.0
        offset = 0
        n = len(pooled)
        for g in groups:
            size = len(g)
            rank_sum = sum(ranks[offset:offset + size])
            h += rank_sum * rank_sum / size
            offset += size
        h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
        assert h == pytest.approx(expected.statistic, rel=1e-9)
        p = stats_module._chi2_sf(h, 2)
        assert p == pytest.approx(expected.pvalue, rel=1e-6)

    def test_chi2_sf_sanity(self):
        from repro.analysis.stats import _chi2_sf

        assert _chi2_sf(0.0, 2) == 1.0
        assert _chi2_sf(5.991, 2) == pytest.approx(0.05, abs=0.001)
        assert _chi2_sf(100.0, 2) < 1e-20
