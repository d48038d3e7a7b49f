"""Unit tests for the anonymized transaction dataset."""

import datetime
import random

import pytest

from repro.errors import DatasetError, MarketError
from repro.market.transactions import Transaction, TransactionDataset
from repro.registry.rir import RIR

D = datetime.date


def t(date, region=RIR.ARIN, length=24, price=22.5, broker="IPv4.Global"):
    return Transaction(
        date=date,
        region=region,
        block_length=length,
        price_per_address=price,
        broker=broker,
    )


class TestTransaction:
    def test_derived_fields(self):
        txn = t(D(2020, 1, 15), length=22)
        assert txn.addresses == 1024
        assert txn.total_value == pytest.approx(1024 * 22.5)
        assert txn.quarter() == (2020, 1)

    def test_quarter_boundaries(self):
        assert t(D(2020, 3, 31)).quarter() == (2020, 1)
        assert t(D(2020, 4, 1)).quarter() == (2020, 2)
        assert t(D(2020, 12, 31)).quarter() == (2020, 4)

    def test_size_anonymity_guard(self):
        with pytest.raises(MarketError):
            t(D(2020, 1, 1), length=15)  # identifiable: rarer than /16
        with pytest.raises(MarketError):
            t(D(2020, 1, 1), length=25)

    def test_price_validation(self):
        with pytest.raises(MarketError):
            t(D(2020, 1, 1), price=0)


class TestDataset:
    @pytest.fixture
    def dataset(self):
        return TransactionDataset([
            t(D(2019, 11, 1), RIR.ARIN, 24, 21.0),
            t(D(2020, 2, 1), RIR.RIPE, 22, 22.0),
            t(D(2020, 2, 15), RIR.APNIC, 16, 20.0),
            t(D(2020, 5, 1), RIR.ARIN, 24, 23.0),
            t(D(2020, 5, 2), RIR.AFRINIC, 24, 22.0),
        ])

    def test_sorted_iteration(self, dataset):
        dates = [txn.date for txn in dataset]
        assert dates == sorted(dates)
        assert len(dataset) == 5

    def test_window_filter(self, dataset):
        window = dataset.in_window(D(2020, 1, 1), D(2020, 3, 1))
        assert len(window) == 2

    def test_region_filters(self, dataset):
        assert len(dataset.for_regions([RIR.ARIN])) == 2
        # The paper's exclusion of AFRINIC/LACNIC.
        core = dataset.excluding_regions([RIR.AFRINIC, RIR.LACNIC])
        assert len(core) == 4

    def test_length_filter(self, dataset):
        assert len(dataset.for_lengths([24])) == 3

    def test_by_quarter(self, dataset):
        quarters = dataset.by_quarter()
        assert list(quarters) == [(2019, 4), (2020, 1), (2020, 2)]
        assert len(quarters[(2020, 1)]) == 2

    def test_by_region_and_counts(self, dataset):
        by_region = dataset.by_region()
        assert len(by_region[RIR.ARIN]) == 2
        assert dataset.count_by_region()[RIR.APNIC] == 1

    def test_add_keeps_sorted(self, dataset):
        dataset.add(t(D(2019, 1, 1)))
        assert next(iter(dataset)).date == D(2019, 1, 1)

    def test_add_matches_constructor_order(self):
        # Ties on (date, region) are frequent here; ``broker`` tells the
        # tied transactions apart, so the check sees their order.
        rng = random.Random(7)
        regions = [RIR.ARIN, RIR.RIPE, RIR.APNIC]
        sequence = [
            t(
                D(2020, 1, 1) + datetime.timedelta(days=rng.randrange(4)),
                region=rng.choice(regions),
                broker=f"broker-{i}",
            )
            for i in range(200)
        ]
        grown = TransactionDataset()
        for transaction in sequence:
            grown.add(transaction)
        assert list(grown) == list(TransactionDataset(sequence))
        assert [x.broker for x in grown] != [x.broker for x in sequence]

    def test_csv_round_trip(self, dataset, tmp_path):
        path = dataset.write_csv(tmp_path / "txns.csv")
        loaded = TransactionDataset.read_csv(path)
        assert len(loaded) == len(dataset)
        assert [txn.date for txn in loaded] == [txn.date for txn in dataset]
        assert [txn.price_per_address for txn in loaded] == \
            [txn.price_per_address for txn in dataset]

    def test_csv_malformed(self):
        with pytest.raises(DatasetError):
            TransactionDataset.from_csv(
                "date,region,block_length,price_per_address,broker\n"
                "2020-01-01,mars,24,22.5,x\n"
            )

    def test_prices(self, dataset):
        assert len(dataset.prices()) == 5
        assert all(price > 0 for price in dataset.prices())
