"""Tests for the compact v2 binary per-day result encoding.

Contract: exact round-trip of (date, delegation quads, attrition
counters) through the one RPD2 decoder and through the shard store's
result shards, folded the way the runner's fan-in folds them;
everything torn, truncated, or foreign — including v1 JSON-era
entries — decodes to ``None`` (a miss), never to a wrong payload; and
the result shards a pool run writes straight from its segment views
are byte-equal to the ones an in-process run encodes.
"""

import datetime
import json
import os
import struct
from array import array

import pytest

from repro.delegation import (
    DailyDelegations,
    InferenceConfig,
    InferenceResult,
    WorldStreamFactory,
    run_inference,
)
from repro.delegation.runner import (
    _CACHE_HEADER,
    _CACHE_MAGIC,
    _COUNTER_FIELDS,
    CACHE_SCHEMA,
    _decode_payload,
    _encode_payload,
    _fold_result_shard,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario
from repro.store import ShardStore

D = datetime.date

KEY = "ab" + "0" * 62


def _plain(payload):
    """A payload with its packed column as a list of quads."""
    if payload is None:
        return None
    words = list(payload["delegations"])
    return {
        "date": payload["date"],
        "delegations": [
            tuple(words[i:i + 4]) for i in range(0, len(words), 4)
        ],
        "counters": payload["counters"],
    }


def _round_trip(payload):
    return _plain(_decode_payload(_encode_payload(payload)))


def _store(tmp_path, metrics=None):
    if metrics is None:
        metrics = MetricsRegistry()
    return ShardStore(tmp_path / "store", "f" * 64, metrics=metrics)


def _read(store):
    """One result-shard probe, folded into a fresh result as the
    runner's fan-in folds it; the folded day as a plain payload, or
    ``None`` on a miss (which must fold nothing)."""
    result = InferenceResult(
        daily=DailyDelegations(), config=InferenceConfig()
    )
    if not _fold_result_shard(store, KEY, result):
        assert len(result.daily) == 0
        assert result.pairs_seen == 0
        return None
    (date,) = result.daily.dates()
    return _plain({
        "date": date,
        "delegations": result.daily.column(date),
        "counters": {
            "pairs_seen": result.pairs_seen,
            "pairs_dropped_visibility": result.pairs_dropped_visibility,
            "pairs_dropped_origin": result.pairs_dropped_origin,
            "delegations_dropped_same_org":
                result.delegations_dropped_same_org,
            "bogon_prefix": result.pairs_dropped_bogon,
        },
    })


def _payload(quads=None):
    if quads is None:
        quads = [
            (0x0A000000, 8, 65001, 65002),
            (0xC0A80000, 16, 65003, 65004),
            (0xFFFFFFFF, 32, 1, 2),
        ]
    return {
        "date": D(2020, 3, 14),
        "delegations": array("I", [word for quad in quads for word in quad]),
        "counters": {
            "pairs_seen": 906195,
            "pairs_dropped_visibility": 12,
            "pairs_dropped_origin": 7,
            "delegations_dropped_same_org": 1199,
            "bogon_prefix": 3,
        },
    }


class TestRoundTrip:
    def test_encode_decode_round_trip(self):
        payload = _payload()
        assert _round_trip(payload) == _plain(payload)

    def test_empty_day(self):
        payload = _payload(quads=[])
        assert _round_trip(payload) == _plain(payload)

    def test_record_size_is_16_bytes(self):
        empty = _encode_payload(_payload(quads=[]))
        three = _encode_payload(_payload())
        assert len(empty) == _CACHE_HEADER.size
        assert len(three) - len(empty) == 3 * 16

    def test_extreme_values(self):
        payload = _payload(quads=[(0xFFFFFFFF, 0, 0xFFFFFFFF, 0)])
        payload["counters"]["pairs_seen"] = 2 ** 63
        assert _round_trip(payload) == _plain(payload)

    def test_file_round_trip(self, tmp_path):
        store = _store(tmp_path)
        path = store.write_result(KEY, _encode_payload(_payload()))
        assert _read(store) == _plain(_payload())
        assert not list(path.parent.glob("*.tmp.*"))  # atomic, no litter

    def test_decoder_accepts_any_buffer(self):
        data = _encode_payload(_payload())
        for buffer in (data, bytearray(data), memoryview(data)):
            decoded = _decode_payload(buffer)
            assert _plain(decoded) == _plain(_payload())


class TestRejection:
    def test_missing_file_is_miss(self, tmp_path):
        assert _read(_store(tmp_path)) is None

    def test_truncated_header(self):
        data = _encode_payload(_payload())
        assert _decode_payload(data[: _CACHE_HEADER.size - 1]) is None

    def test_truncated_body(self):
        data = _encode_payload(_payload())
        assert _decode_payload(data[:-3]) is None

    def test_trailing_garbage(self):
        data = _encode_payload(_payload())
        assert _decode_payload(data + b"\x00") is None

    def test_wrong_magic(self):
        data = _encode_payload(_payload())
        assert _decode_payload(b"NOPE" + data[4:]) is None

    def test_old_schema_invalidated(self):
        # A v2 blob stamped with schema 1 must read as a miss — the
        # schema bump is the v1-invalidation story.
        data = bytearray(_encode_payload(_payload()))
        struct.pack_into("<H", data, 4, CACHE_SCHEMA - 1)
        assert _decode_payload(bytes(data)) is None

    def test_json_era_entry_is_miss(self):
        legacy = json.dumps(
            {"schema": 1, "date": "2020-03-14", "delegations": []}
        ).encode("utf-8")
        assert _decode_payload(legacy) is None

    def test_impossible_date(self):
        data = bytearray(_encode_payload(_payload()))
        struct.pack_into("<HBB", data, 6, 2020, 13, 40)
        assert _decode_payload(bytes(data)) is None

    def test_corrupt_file_logged_as_miss(self, tmp_path, caplog):
        store = _store(tmp_path)
        store.write_result(KEY, b"\x00" * 10)
        with caplog.at_level("WARNING", logger="repro.delegation.runner"):
            assert _read(store) is None
        assert any("malformed" in r.message for r in caplog.records)

    def test_corrupt_file_bumps_malformed_counter(self, tmp_path):
        metrics = MetricsRegistry()
        store = _store(tmp_path, metrics)
        store.write_result(KEY, b"\x00" * 10)
        assert _read(store) is None
        assert metrics.counter("store.malformed") == 1
        assert metrics.counter("store.result_misses") == 1

    def test_missing_file_does_not_count_as_malformed(self, tmp_path):
        metrics = MetricsRegistry()
        assert _read(_store(tmp_path, metrics)) is None
        assert metrics.counter("store.malformed") == 0
        assert metrics.counter("store.result_misses") == 1


class TestAtomicWrite:
    def test_temporary_appends_to_the_entry_name(self, tmp_path):
        # Regression: the temporary used to be built with with_suffix,
        # so two entries whose keys shared a stem raced on one
        # temporary and a crash left it shadowing future writes.  The
        # temporary must embed the full entry name plus the pid.
        calls = []
        original = os.replace

        def spy(src, dst):
            calls.append(os.fspath(src))
            original(src, dst)

        store = _store(tmp_path)
        path = store.result_path(KEY)
        try:
            os.replace = spy
            store.write_result(KEY, _encode_payload(_payload()))
        finally:
            os.replace = original
        assert calls == [
            str(path.with_name(f"{path.name}.tmp.{os.getpid()}"))
        ]
        assert _read(store) == _plain(_payload())


class TestLayout:
    def test_header_is_little_endian_and_self_described(self):
        data = _encode_payload(_payload())
        magic, schema, year, month, day = struct.unpack_from(
            "<4sHHBB", data
        )
        assert magic == _CACHE_MAGIC == b"RPD2"
        assert schema == CACHE_SCHEMA == 2
        assert (year, month, day) == (2020, 3, 14)
        counters = struct.unpack_from("<5Q", data, 10)
        assert dict(zip(_COUNTER_FIELDS, counters)) == \
            _payload()["counters"]
        (count,) = struct.unpack_from("<I", data, 50)
        assert count == 3

    def test_quads_are_flat_u32_little_endian(self):
        data = _encode_payload(_payload(quads=[(1, 2, 3, 4)]))
        assert struct.unpack_from("<4I", data, _CACHE_HEADER.size) == \
            (1, 2, 3, 4)


class TestWriteThrough:
    def test_pool_writes_the_in_process_bytes(self, tmp_path):
        # A jobs=2 run writes each computed day's result shard straight
        # from its view into the fan-in segment; a jobs=1 run encodes
        # its kernel column.  The shards must be byte-equal.
        scenario = small_scenario()
        factory = WorldStreamFactory(scenario)
        as2org = World(scenario).as2org()
        start = scenario.bgp_start
        end = start + datetime.timedelta(days=6)
        shards = {}
        for jobs in (1, 2):
            metrics = MetricsRegistry()
            store_dir = tmp_path / f"jobs{jobs}"
            run_inference(
                factory, start, end, InferenceConfig.extended(),
                as2org=as2org, jobs=jobs, store_dir=store_dir,
                metrics=metrics,
            )
            assert metrics.counter("store.result_writes") == 6
            if jobs == 2:
                assert metrics.gauge("fanin.shm_kb") > 0
            shards[jobs] = {
                path.relative_to(store_dir): path.read_bytes()
                for path in (store_dir / "results").rglob("*.rpd")
            }
        assert len(shards[1]) == 6
        assert shards[2] == shards[1]
