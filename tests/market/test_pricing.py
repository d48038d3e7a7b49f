"""Unit tests for the price model."""

import datetime
import random
import statistics

import pytest

from repro.errors import MarketError
from repro.market.pricing import (
    CONSOLIDATION_START,
    PriceModel,
    PriceModelConfig,
    size_premium,
)
from repro.registry.rir import RIR

D = datetime.date


class TestSizePremium:
    def test_small_blocks_more_expensive(self):
        assert size_premium(24) > size_premium(23) > size_premium(20)

    def test_large_blocks_rise_again(self):
        assert size_premium(12) > size_premium(16)
        assert size_premium(8) > size_premium(12)

    def test_untransferable(self):
        with pytest.raises(MarketError):
            size_premium(25)


class TestTrend:
    @pytest.fixture
    def model(self):
        return PriceModel()

    def test_doubling_since_2016(self, model):
        start = model.trend_price(D(2016, 1, 1))
        now = model.trend_price(D(2020, 6, 1))
        assert now / start == pytest.approx(2.05, rel=0.05)

    def test_2020_level_near_22_50(self, model):
        assert model.trend_price(D(2020, 3, 1)) == pytest.approx(22.5, rel=0.03)

    def test_monotone_rise_before_consolidation(self, model):
        dates = [D(2016, 6, 1), D(2017, 6, 1), D(2018, 6, 1), D(2019, 2, 1)]
        prices = [model.trend_price(d) for d in dates]
        assert prices == sorted(prices)

    def test_flat_during_consolidation(self, model):
        early = model.trend_price(CONSOLIDATION_START)
        late = model.trend_price(D(2020, 6, 1))
        assert abs(late - early) / early < 0.02  # barely changes

    def test_before_start_clamps(self, model):
        assert model.trend_price(D(2015, 1, 1)) == model.config.start_price

    def test_config_validation(self):
        with pytest.raises(MarketError):
            PriceModel(PriceModelConfig(start_price=-1))
        with pytest.raises(MarketError):
            PriceModel(
                PriceModelConfig(
                    start_date=D(2020, 1, 1),
                    consolidation_start=D(2019, 1, 1),
                )
            )


class TestSampling:
    @pytest.fixture
    def model(self):
        return PriceModel()

    def test_no_regional_effect(self, model):
        date = D(2020, 1, 1)
        prices = {
            region: model.expected_price(date, 24, region)
            for region in (RIR.APNIC, RIR.ARIN, RIR.RIPE)
        }
        assert len(set(prices.values())) == 1

    def test_sample_mean_tracks_expectation(self, model):
        rng = random.Random(1)
        date = D(2020, 1, 1)
        samples = [model.sample_price(rng, date, 24) for _ in range(3000)]
        assert statistics.mean(samples) == pytest.approx(
            model.expected_price(date, 24), rel=0.02
        )

    def test_variance_collapses_after_consolidation(self, model):
        rng = random.Random(2)
        before = [
            model.sample_price(rng, D(2017, 6, 1), 24) for _ in range(2000)
        ]
        after = [
            model.sample_price(rng, D(2020, 1, 1), 24) for _ in range(2000)
        ]
        cv_before = statistics.stdev(before) / statistics.mean(before)
        cv_after = statistics.stdev(after) / statistics.mean(after)
        assert cv_after < cv_before / 2

    def test_samples_positive_and_rounded(self, model):
        rng = random.Random(3)
        for _ in range(100):
            price = model.sample_price(rng, D(2019, 1, 1), 16)
            assert price > 0
            assert round(price, 2) == price

    def test_noise_sigma_switch(self, model):
        assert model.noise_sigma(D(2018, 1, 1)) == \
            model.config.noise_sigma_before
        assert model.noise_sigma(D(2020, 1, 1)) == \
            model.config.noise_sigma_after
