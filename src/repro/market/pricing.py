"""The calibrated price-per-IP process (the engine behind Fig. 1).

Calibration targets, straight from the paper:

- prices **doubled** between early 2016 (≈ $11) and 2020 (≈ $22.50),
- from **spring 2019** the market entered a *consolidation phase*:
  prices barely move (brokers anchor on IPv4.Global's published
  prices),
- small blocks (/24, /23) carry a **premium** over /17../16 blocks
  (per-transfer overhead amortizes worse), and very large blocks (
  less-specific than /16) get scarce and expensive again,
- **no statistically significant regional difference** (APNIC vs ARIN
  vs RIPE).
"""

from __future__ import annotations

import datetime
import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import MarketError
from repro.registry.rir import RIR

#: Consolidation start ("Starting from Spring 2019", §3).
CONSOLIDATION_START = datetime.date(2019, 3, 1)


@dataclass(frozen=True)
class PriceModelConfig:
    """Tunable calibration of the price process."""

    start_date: datetime.date = datetime.date(2016, 1, 1)
    start_price: float = 11.0
    consolidation_price: float = 22.5
    consolidation_start: datetime.date = CONSOLIDATION_START
    #: Lognormal sigma of per-transaction noise before/after
    #: consolidation — the variance collapse is the visible signature.
    noise_sigma_before: float = 0.16
    noise_sigma_after: float = 0.06
    #: Annual drift during consolidation (market "barely changes").
    consolidation_drift: float = 0.01

    def validate(self) -> None:
        if self.start_price <= 0 or self.consolidation_price <= 0:
            raise MarketError("prices must be positive")
        if self.consolidation_start <= self.start_date:
            raise MarketError("consolidation must start after start_date")


#: Multiplicative premium by prefix length.  The values are normalized
#: so the *traded-mix-weighted* mean premium is ≈1.0 — that way the
#: market-wide average price equals the trend's ≈$22.50 while /24s
#: still trade visibly above /16s (Fig. 1's size effect).
_SIZE_PREMIUM = {
    24: 1.049,
    23: 0.994,
    22: 0.957,
    21: 0.938,
    20: 0.920,
    19: 0.920,
    18: 0.911,
    17: 0.902,
    16: 0.892,
}


def size_premium(block_length: int) -> float:
    """Premium factor for a block of the given prefix length.

    Blocks less-specific than /16 are rare, so the per-IP price rises
    again (§3); blocks longer than /24 are not transferable at all.
    """
    if block_length > 24:
        raise MarketError(
            f"/{block_length} blocks are not transferable"
        )
    if block_length < 16:
        # Scarcity premium grows with how far above /16 the block is.
        return _SIZE_PREMIUM[16] * (1.0 + 0.08 * (16 - block_length))
    return _SIZE_PREMIUM[block_length]


class PriceModel:
    """Deterministic-by-seed price process for market transactions."""

    def __init__(self, config: Optional[PriceModelConfig] = None):
        self._config = config or PriceModelConfig()
        self._config.validate()

    @property
    def config(self) -> PriceModelConfig:
        return self._config

    # -- trend -----------------------------------------------------------

    def trend_price(self, date: datetime.date) -> float:
        """The market's mean price per IP on ``date`` (no size/noise).

        Grows geometrically from ``start_price`` to
        ``consolidation_price`` over the pre-consolidation window, then
        stays almost flat.
        """
        config = self._config
        if date <= config.start_date:
            return config.start_price
        rise_days = (config.consolidation_start - config.start_date).days
        if date < config.consolidation_start:
            progress = (date - config.start_date).days / rise_days
            ratio = config.consolidation_price / config.start_price
            return config.start_price * ratio ** progress
        flat_years = (date - config.consolidation_start).days / 365.25
        return config.consolidation_price * (
            (1.0 + config.consolidation_drift) ** flat_years
        )

    def noise_sigma(self, date: datetime.date) -> float:
        """Per-transaction lognormal sigma in force on ``date``."""
        if date < self._config.consolidation_start:
            return self._config.noise_sigma_before
        return self._config.noise_sigma_after

    # -- sampling -----------------------------------------------------------

    def expected_price(
        self,
        date: datetime.date,
        block_length: int,
        region: Optional[RIR] = None,
    ) -> float:
        """Mean price per IP for a block of ``block_length`` on ``date``.

        ``region`` is accepted — and deliberately ignored — because the
        paper finds no statistically significant regional difference.
        """
        del region  # no regional effect, by calibration
        return self.trend_price(date) * size_premium(block_length)

    def sample_price(
        self,
        rng: random.Random,
        date: datetime.date,
        block_length: int,
        region: Optional[RIR] = None,
    ) -> float:
        """Draw one transaction price (per IP, USD)."""
        mean = self.expected_price(date, block_length, region)
        sigma = self.noise_sigma(date)
        # Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).
        noise = math.exp(rng.gauss(-0.5 * sigma * sigma, sigma))
        return round(mean * noise, 2)
