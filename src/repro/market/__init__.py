"""The IPv4 transfer and leasing markets.

Implements both sides of the paper's economics:

- :mod:`~repro.market.pricing` — the calibrated price process behind
  Fig. 1 (doubling 2016→2019, /24–/23 size premium, no regional
  effect, consolidation from spring 2019),
- :mod:`~repro.market.broker` — broker entities and commissions,
- :mod:`~repro.market.transactions` — the anonymized transaction
  dataset (the stand-in for the 2.9k-transaction broker data),
- :mod:`~repro.market.leasing` — the 21 leasing providers of Fig. 4
  with their advertised price timelines and lease agreements,
- :mod:`~repro.market.amortization` — the §6 buy-vs-lease model.
"""

from repro.market.amortization import (
    AmortizationScenario,
    amortization_months,
    amortization_years,
)
from repro.market.broker import Broker, default_brokers
from repro.market.leasing import (
    LeaseAgreement,
    LeasingProvider,
    ScrapeLog,
    default_leasing_providers,
)
from repro.market.pricing import PriceModel, PriceModelConfig
from repro.market.transactions import Transaction, TransactionDataset

__all__ = [
    "AmortizationScenario",
    "Broker",
    "LeaseAgreement",
    "LeasingProvider",
    "PriceModel",
    "PriceModelConfig",
    "ScrapeLog",
    "Transaction",
    "TransactionDataset",
    "amortization_months",
    "amortization_years",
    "default_brokers",
    "default_leasing_providers",
]
