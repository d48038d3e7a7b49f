"""Tests for the NRO delegated-extended statistics format."""

import datetime

import pytest

from repro.errors import DatasetError
from repro.netbase.prefix import IPv4Prefix, parse_address
from repro.registry.delegated_stats import (
    DelegatedRecord,
    DelegationStatus,
    available_addresses,
    parse_file,
    records_from_registry,
    render_file,
)
from repro.registry.registry import RIRRegistry
from repro.registry.rir import RIR

D = datetime.date


def record(start="193.0.0.0", count=65536,
           status=DelegationStatus.ALLOCATED, date=D(1993, 9, 1)):
    return DelegatedRecord(
        rir=RIR.RIPE,
        country="EU",
        start=parse_address(start),
        count=count,
        date=date,
        status=status,
        opaque_id="org-1",
    )


class TestRecord:
    def test_line_round_trip(self):
        original = record()
        parsed = DelegatedRecord.from_line(original.to_line())
        assert parsed == original

    def test_classic_line_parses(self):
        line = "ripencc|EU|ipv4|193.0.0.0|65536|19930901|allocated|x"
        parsed = DelegatedRecord.from_line(line)
        assert parsed.rir is RIR.RIPE
        assert parsed.count == 65536
        assert parsed.status is DelegationStatus.ALLOCATED
        assert parsed.date == D(1993, 9, 1)

    def test_available_line_without_date(self):
        line = "ripencc|ZZ|ipv4|185.0.0.0|1024||available|"
        parsed = DelegatedRecord.from_line(line)
        assert parsed.date is None
        assert parsed.status is DelegationStatus.AVAILABLE

    def test_non_cidr_count(self):
        # Early allocations were not CIDR aligned: count 768 = /24 + /25...
        rec = record(count=768)
        prefixes = rec.prefixes()
        assert sum(p.num_addresses for p in prefixes) == 768
        assert len(prefixes) == 2

    @pytest.mark.parametrize("bad", [
        "ripencc|EU|ipv6|::|32|19930901|allocated",
        "ripencc|EU|ipv4|193.0.0.0|x|19930901|allocated",
        "ripencc|EU|ipv4|193.0.0.0|256|19930901|weird",
        "short|line",
        "mars|EU|ipv4|193.0.0.0|256|19930901|allocated",
    ])
    def test_malformed_lines(self, bad):
        with pytest.raises(DatasetError):
            DelegatedRecord.from_line(bad)

    def test_validation(self):
        with pytest.raises(DatasetError):
            record(count=0)


class TestFile:
    def test_render_parse_round_trip(self):
        records = [
            record(),
            record(start="185.0.0.0", count=1024,
                   status=DelegationStatus.AVAILABLE, date=None),
        ]
        text = render_file(RIR.RIPE, records, file_date=D(2020, 6, 1))
        parsed = parse_file(text)
        assert sorted(parsed, key=lambda r: r.start) == sorted(
            records, key=lambda r: r.start
        )

    def test_header_and_summary_present(self):
        text = render_file(RIR.RIPE, [record()], file_date=D(2020, 6, 1))
        lines = text.splitlines()
        assert lines[0].startswith("2|ripencc|20200601|1|")
        assert lines[1] == "ripencc|*|ipv4|*|1|summary"

    def test_summary_mismatch_detected(self):
        text = (
            "2|ripencc|20200601|2|19830101|20200601|+0000\n"
            "ripencc|*|ipv4|*|2|summary\n"
            "ripencc|EU|ipv4|193.0.0.0|256|19930901|allocated|x\n"
        )
        with pytest.raises(DatasetError):
            parse_file(text)

    def test_comments_skipped(self):
        text = (
            "# a comment\n"
            "ripencc|EU|ipv4|193.0.0.0|256|19930901|allocated|x\n"
        )
        assert len(parse_file(text)) == 1

    def test_available_addresses(self):
        records = [
            record(),
            record(start="185.0.0.0", count=340_000 // 256 * 256,
                   status=DelegationStatus.AVAILABLE, date=None),
        ]
        assert available_addresses(records) == 340_000 // 256 * 256


class TestFromRegistry:
    def test_registry_state_renders(self):
        registry = RIRRegistry(
            RIR.RIPE, [IPv4Prefix.parse("185.0.0.0/20")]
        )
        registry.open_membership("org-1", D(2019, 1, 1))
        _decision, block = registry.request_allocation(
            "org-1", D(2019, 6, 1)
        )
        registry.open_membership("org-2", D(2019, 1, 1))
        registry.register_external_block(
            "org-2", IPv4Prefix.parse("193.0.0.0/24")
        )
        registry.recover("org-2", IPv4Prefix.parse("193.0.0.0/24"),
                         D(2020, 1, 1))
        records = list(records_from_registry(registry, date=D(2020, 1, 2)))
        by_status = {}
        for rec in records:
            by_status.setdefault(rec.status, []).append(rec)
        allocated = by_status[DelegationStatus.ALLOCATED]
        assert any(rec.start == block.network for rec in allocated)
        assert DelegationStatus.AVAILABLE in by_status
        assert DelegationStatus.RESERVED in by_status  # quarantine
        # The whole state survives a file round trip.
        text = render_file(RIR.RIPE, records, file_date=D(2020, 1, 2))
        assert len(parse_file(text)) == len(records)
