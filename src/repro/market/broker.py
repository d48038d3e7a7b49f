"""IPv4 brokers.

Certified brokers connect buying and selling LIRs, negotiate prices,
and handle the transfer formalities (§2).  Their commissions range
from ~5 % to ~10 % and can be charged to either party or split.  The
paper's pricing dataset comes from four of them — IPv4.Global (public
prices) plus three sharing private data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import MarketError


class CommissionSide(enum.Enum):
    """Who pays the broker's commission."""

    SELLER = "seller"
    BUYER = "buyer"
    SPLIT = "split"


@dataclass(frozen=True)
class Broker:
    """One certified IPv4 broker."""

    name: str
    commission_rate: float
    commission_side: CommissionSide = CommissionSide.SELLER
    publishes_prices: bool = False
    shares_private_data: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise MarketError("broker needs a name")
        if not 0.0 <= self.commission_rate <= 0.25:
            raise MarketError(
                f"implausible commission rate: {self.commission_rate}"
            )

    def commission_amounts(
        self, transaction_value: float
    ) -> Tuple[float, float]:
        """(seller_pays, buyer_pays) commission for a transaction."""
        if transaction_value < 0:
            raise MarketError("transaction value cannot be negative")
        total = transaction_value * self.commission_rate
        if self.commission_side is CommissionSide.SELLER:
            return (total, 0.0)
        if self.commission_side is CommissionSide.BUYER:
            return (0.0, total)
        return (total / 2.0, total / 2.0)


def default_brokers() -> List[Broker]:
    """The four pricing-data brokers of §3.

    IPv4.Global publishes prior-sale prices; Brander Group,
    IPTrading.com, and IPv4 Market Group shared private data.
    Commissions span the ~5–10 % range the 13 interviewed brokers
    reported.
    """
    return [
        Broker(
            name="IPv4.Global",
            commission_rate=0.08,
            commission_side=CommissionSide.SELLER,
            publishes_prices=True,
            shares_private_data=False,
        ),
        Broker(
            name="Brander Group",
            commission_rate=0.05,
            commission_side=CommissionSide.SPLIT,
            shares_private_data=True,
        ),
        Broker(
            name="IPTrading.com",
            commission_rate=0.10,
            commission_side=CommissionSide.SELLER,
            shares_private_data=True,
        ),
        Broker(
            name="IPv4 Market Group",
            commission_rate=0.07,
            commission_side=CommissionSide.BUYER,
            shares_private_data=True,
        ),
    ]
