"""The §4 cleaning rules, split between stream and kernel, act as one.

The paper removes routes for private and reserved address space,
routes with an IANA-reserved AS and routes whose AS path loops, before
it infers delegations.  The library splits these rules: an archive
stream drops the routes that break the two AS-path rules while it
aggregates (:meth:`~repro.bgp.stream.RouteStream.pair_table_on`), and
the per-day kernel drops bogon prefixes per pair.  On drawn record
days (loops, reserved ASNs, bogon prefixes nested both ways, MOAS and
AS_SET origins, any subset of monitors) the split must infer exactly
what the trie reference kernel infers from the records
:func:`~repro.bgp.sanitize.sanitize_records` keeps.
"""

import datetime
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import RouteRecord
from repro.bgp.propagation import PropagationModel
from repro.bgp.sanitize import sanitize_records
from repro.bgp.stream import RouteStream, prefix_origin_pairs
from repro.bgp.topology import ASTopology
from repro.delegation import DelegationInference, InferenceConfig
from repro.netbase.aspath import ASPath
from repro.netbase.prefix import IPv4Prefix
from tests.delegation.reference_kernel import ReferenceInference

#: Days that once failed; none so far.  Each entry is
#: ``(visibility_threshold, [(collector, monitor, prefix, path), ...])``.
REGRESSION_SEEDS = []

DATE = datetime.date(2020, 1, 1)
MONITORS = {"rrc00": (1, 2, 3), "route-views2": (4, 5)}
PREFIXES = (
    "101.0.0.0/8", "101.0.0.0/16", "101.0.4.0/24", "101.0.4.0/25",
    "101.0.5.0/24", "101.1.0.0/16",
    # Bogons, plus a public-looking block that covers one.
    "10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24", "96.0.0.0/4",
)
ORIGINS = ("100", "200", "300", "{100,200}")
#: Transit ASes: public ones, AS_TRANS and a documentation ASN (both
#: reserved), and the origins, whose reappearance makes loops.
TRANSIT = ("7", "8", "23456", "64500", "100", "200")


@st.composite
def record_days(draw):
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        collector = draw(st.sampled_from(sorted(MONITORS)))
        monitor = draw(st.sampled_from(MONITORS[collector]))
        middle = draw(st.lists(st.sampled_from(TRANSIT), max_size=3))
        path = " ".join(
            [str(monitor)] + middle + [draw(st.sampled_from(ORIGINS))]
        )
        entries.append(
            (collector, monitor, draw(st.sampled_from(PREFIXES)), path)
        )
    return draw(st.sampled_from([0.0, 0.3, 0.5])), entries


def _system():
    return CollectorSystem(
        [Collector(name, monitors) for name, monitors in MONITORS.items()],
        PropagationModel(ASTopology()),
    )


def _records(entries):
    return [
        RouteRecord(
            collector=collector,
            monitor_asn=monitor,
            prefix=IPv4Prefix.parse(prefix),
            as_path=ASPath.parse(path),
            date=DATE,
        )
        for collector, monitor, prefix, path in entries
    ]


def check_day(threshold, entries):
    config = InferenceConfig(
        visibility_threshold=threshold,
        same_org_filter=False,
        consistency_rule=None,
    )
    records = _records(entries)
    system = _system()
    with tempfile.TemporaryDirectory() as directory:
        for name in MONITORS:
            path = pathlib.Path(directory) / name / f"{DATE}.jsonl"
            path.parent.mkdir()
            path.write_text("".join(
                json.dumps(record.to_json()) + "\n"
                for record in records if record.collector == name
            ))
        stream = RouteStream(system, archive_dir=directory)
        found = DelegationInference(config).infer_day_from_table(
            stream.pair_table_on(DATE), stream.monitor_count(), DATE
        )
    expected = ReferenceInference(config).infer_day_from_pairs(
        prefix_origin_pairs(sanitize_records(records)),
        len(system.all_monitors()), DATE,
    )
    assert sorted(d.key() for d in found) == sorted(
        d.key() for d in expected
    )


class TestSanitizeSplit:
    @settings(max_examples=80, deadline=None)
    @given(record_days())
    def test_archive_split_matches_record_sanitization(self, day):
        check_day(*day)

    def test_regression_seeds(self):
        for threshold, entries in REGRESSION_SEEDS:
            check_day(threshold, entries)

    def test_split_drops_path_faults_before_aggregation(self):
        # Monitor 1 alone sees the /24 from 200 over a clean path, so
        # 200 is its sole origin and the /24 is delegated.  Were the
        # looped route of monitor 4 kept, 100 would join the origins
        # (MOAS) and the delegation would go.
        entries = [
            ("rrc00", 1, "101.0.0.0/16", "1 7 100"),
            ("rrc00", 1, "101.0.4.0/24", "1 8 200"),
            ("route-views2", 4, "101.0.4.0/24", "4 100 7 100"),
        ]
        check_day(0.0, entries)
