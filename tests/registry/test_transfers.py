"""Unit tests for :mod:`repro.registry.transfers`."""

import datetime
import json

import pytest

from repro.errors import DatasetError, TransferError
from repro.netbase.prefix import IPv4Prefix
from repro.registry.rir import RIR
from repro.registry.transfers import (
    TransferLedger,
    TransferRecord,
    TransferType,
)


def d(text):
    return datetime.date.fromisoformat(text)


def p(text):
    return IPv4Prefix.parse(text)


def make_record(ledger, *, date="2020-01-02", src_rir=RIR.RIPE,
                dst_rir=RIR.RIPE, true_type=TransferType.MARKET,
                prefix="193.0.0.0/24"):
    return ledger.record(
        date=d(date),
        prefixes=[p(prefix)],
        source_org="org-src",
        recipient_org="org-dst",
        source_rir=src_rir,
        recipient_rir=dst_rir,
        true_type=true_type,
    )


class TestRecord:
    def test_basic_properties(self):
        ledger = TransferLedger()
        record = make_record(ledger)
        assert record.addresses == 256
        assert record.largest_block_length == 24
        assert not record.is_inter_rir

    def test_empty_prefixes_rejected(self):
        with pytest.raises(TransferError):
            TransferRecord(
                transfer_id="T1",
                date=d("2020-01-01"),
                prefixes=(),
                source_org="a",
                recipient_org="b",
                source_rir=RIR.RIPE,
                recipient_rir=RIR.RIPE,
                true_type=TransferType.MARKET,
            )

    def test_published_type_labelled(self):
        ledger = TransferLedger()
        record = make_record(
            ledger, true_type=TransferType.MERGER_ACQUISITION
        )
        assert record.published_type() is TransferType.MERGER_ACQUISITION

    def test_published_type_unlabelled(self):
        ledger = TransferLedger()
        record = make_record(
            ledger, src_rir=RIR.APNIC, dst_rir=RIR.APNIC,
            true_type=TransferType.MERGER_ACQUISITION, prefix="1.0.0.0/24",
        )
        assert record.published_type() is None

    def test_largest_block(self):
        ledger = TransferLedger()
        record = ledger.record(
            date=d("2020-01-01"),
            prefixes=[p("193.0.0.0/24"), p("193.1.0.0/16")],
            source_org="a", recipient_org="b",
            source_rir=RIR.RIPE, recipient_rir=RIR.RIPE,
        )
        assert record.largest_block_length == 16
        assert record.addresses == 256 + 65536


class TestJsonRoundTrip:
    def test_round_trip_market(self):
        ledger = TransferLedger()
        record = make_record(ledger)
        parsed = TransferRecord.from_feed_json(record.to_feed_json())
        assert parsed.date == record.date
        assert parsed.prefixes == record.prefixes
        assert parsed.source_rir is RIR.RIPE
        assert parsed.true_type is TransferType.MARKET

    def test_mna_label_survives_for_labelling_rir(self):
        ledger = TransferLedger()
        record = make_record(
            ledger, true_type=TransferType.MERGER_ACQUISITION
        )
        parsed = TransferRecord.from_feed_json(record.to_feed_json())
        assert parsed.true_type is TransferType.MERGER_ACQUISITION

    def test_mna_label_lost_for_apnic(self):
        ledger = TransferLedger()
        record = make_record(
            ledger, src_rir=RIR.APNIC, dst_rir=RIR.APNIC,
            true_type=TransferType.MERGER_ACQUISITION, prefix="1.0.0.0/24",
        )
        parsed = TransferRecord.from_feed_json(record.to_feed_json())
        assert parsed.true_type is TransferType.MARKET  # ambiguity modeled

    def test_range_split_into_cidrs(self):
        raw = {
            "transfer_date": "2020-01-02T00:00:00Z",
            "type": "RESOURCE_TRANSFER",
            "source_organization": {"name": "a"},
            "recipient_organization": {"name": "b"},
            "source_rir": "ARIN",
            "recipient_rir": "ARIN",
            "ip4nets": {"transfer_set": [
                {"start_address": "8.0.0.128", "end_address": "8.0.1.255"},
            ]},
        }
        parsed = TransferRecord.from_feed_json(raw)
        assert parsed.prefixes == (p("8.0.0.128/25"), p("8.0.1.0/24"))

    def test_malformed_raises_dataseterror(self):
        with pytest.raises(DatasetError):
            TransferRecord.from_feed_json({"transfer_date": "bogus"})


class TestLedger:
    def test_queries(self):
        ledger = TransferLedger()
        make_record(ledger, date="2020-01-02")
        make_record(ledger, date="2020-03-02")
        make_record(ledger, date="2020-02-02", src_rir=RIR.ARIN,
                    dst_rir=RIR.RIPE, prefix="8.0.0.0/24")
        assert len(ledger) == 3
        assert len(ledger.intra_rir(RIR.RIPE)) == 2
        assert len(ledger.inter_rir()) == 1
        assert len(ledger.between(d("2020-01-01"), d("2020-03-01"))) == 2

    def test_records_sorted(self):
        ledger = TransferLedger()
        make_record(ledger, date="2020-03-02")
        make_record(ledger, date="2020-01-02")
        dates = [r.date for r in ledger]
        assert dates == sorted(dates)

    def test_record_after_read_appears_in_order(self):
        ledger = TransferLedger()
        make_record(ledger, date="2020-03-02")
        make_record(ledger, date="2020-01-02")
        assert len(ledger.records()) == 2
        early = make_record(ledger, date="2019-12-01", prefix="193.0.1.0/24")
        assert ledger.records()[0] is early
        assert [r.date for r in ledger] == [
            d("2019-12-01"), d("2020-01-02"), d("2020-03-02"),
        ]
        assert len(ledger.intra_rir(RIR.RIPE)) == 3
        late = TransferRecord(
            transfer_id="X1", date=d("2020-12-01"),
            prefixes=(p("8.0.0.0/24"),), source_org="a", recipient_org="b",
            source_rir=RIR.ARIN, recipient_rir=RIR.ARIN,
            true_type=TransferType.MARKET,
        )
        ledger.extend([late])
        assert ledger.records()[-1] is late
        assert len(ledger.between(d("2019-01-01"), d("2021-01-01"))) == 4

    def test_records_returns_a_copy(self):
        ledger = TransferLedger()
        make_record(ledger, date="2020-03-02")
        make_record(ledger, date="2020-01-02")
        records = ledger.records()
        records.reverse()
        records.append(records[0])
        assert [r.date for r in ledger.records()] == [
            d("2020-01-02"), d("2020-03-02"),
        ]
        assert len(ledger) == 2

    def test_from_feeds_sorts_and_numbers_like_record(self):
        ledger = TransferLedger()
        make_record(ledger, date="2020-03-02")
        make_record(ledger, date="2020-01-02", prefix="193.0.1.0/24")
        rebuilt = TransferLedger.from_feeds(
            [ledger.feed_for(rir) for rir in RIR]
        )
        assert [r.date for r in rebuilt] == [d("2020-01-02"), d("2020-03-02")]
        added = make_record(rebuilt, date="2019-06-01")
        assert added.transfer_id == "T0000003"
        assert rebuilt.records()[0] is added

    def test_feed_contains_both_endpoints(self):
        ledger = TransferLedger()
        make_record(ledger, src_rir=RIR.ARIN, dst_rir=RIR.RIPE,
                    prefix="8.0.0.0/24")
        arin_feed = ledger.feed_for(RIR.ARIN)
        ripe_feed = ledger.feed_for(RIR.RIPE)
        apnic_feed = ledger.feed_for(RIR.APNIC)
        assert len(arin_feed["transfers"]) == 1
        assert len(ripe_feed["transfers"]) == 1
        assert len(apnic_feed["transfers"]) == 0

    def test_from_feeds_dedupes_inter_rir(self):
        ledger = TransferLedger()
        make_record(ledger, src_rir=RIR.ARIN, dst_rir=RIR.RIPE,
                    prefix="8.0.0.0/24")
        make_record(ledger, date="2020-02-02")
        feeds = [ledger.feed_for(rir) for rir in RIR]
        rebuilt = TransferLedger.from_feeds(feeds)
        assert len(rebuilt) == 2

    def test_write_feeds(self, tmp_path):
        ledger = TransferLedger()
        make_record(ledger)
        paths = ledger.write_feeds(tmp_path)
        assert set(paths) == set(RIR)
        with open(paths[RIR.RIPE], encoding="utf-8") as handle:
            feed = json.load(handle)
        assert feed["rir"] == "RIPE NCC"
        assert len(feed["transfers"]) == 1

    def test_from_feeds_keeps_mna_and_market_twins(self):
        """Regression: the dedup key omitted the published type, so a
        labelled M&A transfer and a market transfer with identical
        endpoints, date, and prefixes collapsed into one record."""
        ledger = TransferLedger()
        make_record(ledger, true_type=TransferType.MARKET)
        make_record(ledger, true_type=TransferType.MERGER_ACQUISITION)
        feeds = [ledger.feed_for(rir) for rir in RIR]
        rebuilt = TransferLedger.from_feeds(feeds)
        assert len(rebuilt) == 2
        types = sorted(r.true_type.value for r in rebuilt)
        assert types == ["market", "merger-acquisition"]

    def test_from_feeds_still_dedupes_inter_rir_mna(self):
        """An inter-RIR M&A transfer appears in both endpoint feeds
        with the same type label, so it still collapses to one."""
        ledger = TransferLedger()
        make_record(ledger, src_rir=RIR.ARIN, dst_rir=RIR.RIPE,
                    true_type=TransferType.MERGER_ACQUISITION,
                    prefix="8.0.0.0/24")
        feeds = [ledger.feed_for(rir) for rir in RIR]
        rebuilt = TransferLedger.from_feeds(feeds)
        assert len(rebuilt) == 1


class TestFromFeedsQuarantine:
    def _feeds_with_bad_record(self):
        ledger = TransferLedger()
        make_record(ledger)
        make_record(ledger, date="2020-02-02", prefix="193.0.1.0/24")
        feed = ledger.feed_for(RIR.RIPE)
        feed["transfers"][0].pop("ip4nets")
        return [feed]

    def test_strict_raises_with_context(self):
        from repro.ingest import ErrorPolicy

        feeds = self._feeds_with_bad_record()
        with pytest.raises(DatasetError, match="record 0"):
            TransferLedger.from_feeds(feeds, policy=ErrorPolicy.STRICT)

    def test_strict_is_default(self):
        with pytest.raises(DatasetError):
            TransferLedger.from_feeds(self._feeds_with_bad_record())

    def test_quarantine_continues_and_reports(self):
        from repro.ingest import ErrorPolicy, QuarantineReport

        feeds = self._feeds_with_bad_record()
        report = QuarantineReport()
        rebuilt = TransferLedger.from_feeds(
            feeds,
            policy=ErrorPolicy.QUARANTINE,
            report=report,
            sources=["ripe_feed.json"],
        )
        assert len(rebuilt) == 1
        assert report.count() == 1
        entry = report.records()[0]
        assert entry.source == "ripe_feed.json"
        assert entry.index == 0
        assert entry.kind == "transfers"

    def test_quarantine_non_list_transfers(self):
        from repro.ingest import ErrorPolicy, QuarantineReport

        report = QuarantineReport()
        rebuilt = TransferLedger.from_feeds(
            [{"rir": "RIPE NCC", "transfers": "oops"}],
            policy=ErrorPolicy.QUARANTINE,
            report=report,
        )
        assert len(rebuilt) == 0
        assert report.count("RIPE NCC") == 1
