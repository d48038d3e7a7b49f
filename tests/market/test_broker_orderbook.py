"""Unit tests for brokers."""

import pytest

from repro.errors import MarketError
from repro.market.broker import Broker, CommissionSide, default_brokers


class TestBroker:
    def test_commission_sides(self):
        seller_side = Broker("A", 0.10, CommissionSide.SELLER)
        assert seller_side.commission_amounts(1000.0) == (100.0, 0.0)
        buyer_side = Broker("B", 0.10, CommissionSide.BUYER)
        assert buyer_side.commission_amounts(1000.0) == (0.0, 100.0)
        split = Broker("C", 0.10, CommissionSide.SPLIT)
        assert split.commission_amounts(1000.0) == (50.0, 50.0)

    def test_validation(self):
        with pytest.raises(MarketError):
            Broker("", 0.05)
        with pytest.raises(MarketError):
            Broker("A", 0.5)
        with pytest.raises(MarketError):
            Broker("A", 0.05).commission_amounts(-1)

    def test_default_brokers(self):
        brokers = default_brokers()
        assert len(brokers) == 4
        public = [b for b in brokers if b.publishes_prices]
        assert [b.name for b in public] == ["IPv4.Global"]
        assert sum(b.shares_private_data for b in brokers) == 3
        assert all(0.05 <= b.commission_rate <= 0.10 for b in brokers)
