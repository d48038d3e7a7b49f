"""Shard-store failure matrix: every way a shard file can be wrong.

Contract: a warm shard maps zero-copy and round-trips the table
exactly; everything else — torn tails, foreign magic, a v2 result
payload dropped into the input namespace, an unmappable file, a misdated rename —
loads as a miss (never as a wrong table), bumps ``store.malformed``,
and the day is recomputed.  Writes are atomic, so concurrent writers
race benignly and readers only ever see complete files.
"""

import concurrent.futures
import datetime
import os
import sys
import time
from array import array

import pytest

from repro.bgp.rib import ROW_BYTES, PairTable
from repro.delegation.runner import _encode_payload
from repro.netbase import lpm
from repro.obs.metrics import MetricsRegistry
from repro.store.shard import (
    _SHARD_HEADER,
    SHARD_SCHEMA,
    ShardStore,
    atomic_write_bytes,
    sweep_stale_temporaries,
)

D = datetime.date
DAY = D(2020, 3, 14)
FINGERPRINT = "f" * 64


def _table(count=5):
    aggregate = {}
    for index in range(count):
        key = ((0x0A000000 + index * 256) << 6) | 24
        aggregate[key] = (65000 + index, index % 2 == 0, 5 + index)
    return PairTable.from_aggregate(aggregate)


@pytest.fixture()
def store(tmp_path):
    return ShardStore(
        tmp_path / "store", FINGERPRINT, metrics=MetricsRegistry()
    )


class TestRoundTrip:
    def test_write_load_round_trip(self, store):
        table = _table()
        path = store.write(DAY, table, total_monitors=24)
        assert path.stat().st_size == \
            _SHARD_HEADER.size + len(table) * ROW_BYTES
        loaded, total_monitors = store.load(DAY)
        assert total_monitors == 24
        assert loaded.equals(table)
        assert store.metrics.counter("store.writes") == 1
        assert store.metrics.counter("store.hits") == 1
        assert store.metrics.counter("store.malformed") == 0

    def test_loads_are_zero_copy_views(self, store):
        store.write(DAY, _table(), total_monitors=24)
        loaded, _ = store.load(DAY)
        if sys.byteorder == "little":
            assert loaded.is_buffer_backed
            assert isinstance(loaded.keys, memoryview)
            # The view is read-only and materializes to equal arrays.
            with pytest.raises(TypeError):
                loaded.keys[0] = 0
        copy = loaded.materialize()
        assert not copy.is_buffer_backed
        assert copy.equals(loaded)

    def test_empty_day_round_trips(self, store):
        table = _table(count=0)
        store.write(DAY, table, total_monitors=24)
        loaded, total_monitors = store.load(DAY)
        assert len(loaded) == 0
        assert total_monitors == 24

    def test_mapped_kb_gauge_accumulates(self, store):
        store.write(DAY, _table(64), total_monitors=24)
        store.load(DAY)
        store.load(DAY)
        size = store.path(DAY).stat().st_size
        assert store.metrics.gauge("store.mapped_kb") == \
            (2 * size) // 1024

    def test_key_excludes_config_and_kernel(self, store, tmp_path):
        # Same inputs, different directory: identical content address.
        other = ShardStore(tmp_path / "elsewhere", FINGERPRINT)
        assert store.key(DAY) == other.key(DAY)
        # Different input data: different address.
        foreign = ShardStore(tmp_path / "store", "0" * 64)
        assert store.key(DAY) != foreign.key(DAY)
        assert store.key(DAY) != store.key(DAY + datetime.timedelta(1))


class TestFailureMatrix:
    def _assert_malformed_miss(self, store, expected=1):
        assert store.load(DAY) is None
        assert store.metrics.counter("store.malformed") == expected
        assert store.metrics.counter("store.misses") == expected
        assert store.metrics.counter("store.hits") == 0

    def test_missing_day_is_a_plain_miss(self, store):
        assert store.load(DAY) is None
        assert store.metrics.counter("store.misses") == 1
        assert store.metrics.counter("store.malformed") == 0

    def test_torn_tail(self, store):
        path = store.write(DAY, _table(), total_monitors=24)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        self._assert_malformed_miss(store)

    def test_appended_garbage(self, store):
        path = store.write(DAY, _table(), total_monitors=24)
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 7)
        self._assert_malformed_miss(store)

    def test_truncated_below_header(self, store):
        path = store.write(DAY, _table(), total_monitors=24)
        path.write_bytes(path.read_bytes()[: _SHARD_HEADER.size - 1])
        self._assert_malformed_miss(store)

    def test_zero_length_file_is_unmappable(self, store):
        path = store.write(DAY, _table(), total_monitors=24)
        path.write_bytes(b"")
        self._assert_malformed_miss(store)

    def test_foreign_magic(self, store):
        path = store.write(DAY, _table(), total_monitors=24)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTSHARD"
        path.write_bytes(bytes(data))
        self._assert_malformed_miss(store)

    def test_foreign_schema(self, store):
        path = store.write(DAY, _table(), total_monitors=24)
        data = bytearray(path.read_bytes())
        data[8:10] = (SHARD_SCHEMA + 1).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        self._assert_malformed_miss(store)

    def test_v2_cache_entry_in_the_store(self, store):
        # A result-shard payload dropped into the input namespace (the
        # magic collision the RPSHARD3 magic + schema check exists for).
        entry = _encode_payload({
            "date": DAY,
            "delegations": array("I", [0x0A000000, 24, 65001, 65002]),
            "counters": {
                "pairs_seen": 10,
                "pairs_dropped_visibility": 1,
                "pairs_dropped_origin": 2,
                "delegations_dropped_same_org": 3,
                "bogon_prefix": 0,
            },
        })
        path = store.path(DAY)
        path.parent.mkdir(parents=True)
        path.write_bytes(entry)
        self._assert_malformed_miss(store)

    def test_misdated_shard(self, store):
        # Rename a valid shard onto another day's address: the header
        # date no longer matches the day being asked for.
        source = store.write(
            DAY + datetime.timedelta(days=1), _table(), total_monitors=24
        )
        target = store.path(DAY)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        self._assert_malformed_miss(store)

    def test_corrupt_shard_does_not_poison_rewrite(self, store):
        path = store.write(DAY, _table(), total_monitors=24)
        path.write_bytes(b"garbage")
        assert store.load(DAY) is None
        table = _table()
        store.write(DAY, table, total_monitors=24)
        loaded, _ = store.load(DAY)
        assert loaded.equals(table)


class TestAtomicWrites:
    def test_temporary_name_appends_to_the_full_name(self, tmp_path):
        # Regression: with_suffix-built temporaries collide for names
        # differing only in suffix and leak on crash; the temporary
        # must embed the full file name and the writer pid.
        calls = []
        original = os.replace

        def spy(src, dst):
            calls.append((os.fspath(src), os.fspath(dst)))
            original(src, dst)

        target = tmp_path / "ab" / "abcd.shard"
        try:
            os.replace = spy
            atomic_write_bytes(target, b"payload")
        finally:
            os.replace = original
        (src, dst) = calls[0]
        assert dst == str(target)
        assert src == str(
            target.with_name(f"abcd.shard.tmp.{os.getpid()}")
        )
        assert target.read_bytes() == b"payload"
        assert list(tmp_path.rglob("*.tmp.*")) == []

    def test_interrupted_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "abcd.shard"
        target.write_bytes(b"old")
        original = os.replace

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        try:
            os.replace = crash
            with pytest.raises(OSError):
                atomic_write_bytes(target, b"new")
        finally:
            os.replace = original
        assert target.read_bytes() == b"old"
        leaked = list(tmp_path.glob("*.tmp.*"))
        assert len(leaked) == 1  # swept later, not on this code path

    def test_concurrent_writers_never_expose_partial_files(self, tmp_path):
        store = ShardStore(
            tmp_path / "store", FINGERPRINT, metrics=MetricsRegistry()
        )
        table = _table(32)
        expected = table.to_bytes()
        with concurrent.futures.ProcessPoolExecutor(2) as pool:
            futures = [
                pool.submit(
                    _hammer_writes, str(tmp_path / "store"), DAY.toordinal()
                )
                for _ in range(2)
            ]
            deadline = time.monotonic() + 10.0
            observed = 0
            while time.monotonic() < deadline and not all(
                future.done() for future in futures
            ):
                loaded = store.load(DAY)
                if loaded is not None:
                    loaded_table, total = loaded
                    assert total == 24
                    assert loaded_table.materialize().to_bytes() == expected
                    observed += 1
            for future in futures:
                future.result(timeout=30)
        assert store.metrics.counter("store.malformed") == 0
        assert observed > 0
        final, _ = store.load(DAY)
        assert final.materialize().to_bytes() == expected


def _hammer_writes(store_dir, ordinal):
    store = ShardStore(store_dir, FINGERPRINT, sweep=False)
    table = _table(32)
    for _ in range(50):
        store.write(
            datetime.date.fromordinal(ordinal), table, total_monitors=24
        )


class TestStaleTemporarySweep:
    def _make_tmp(self, base, name, age_seconds):
        path = base / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"leftover")
        old = time.time() - age_seconds
        os.utime(path, (old, old))
        return path

    def test_sweeps_old_keeps_young(self, tmp_path):
        stale = self._make_tmp(
            tmp_path, "ab/abcd.shard.tmp.123", age_seconds=7200
        )
        young = self._make_tmp(
            tmp_path, "cd/cdef.shard.tmp.456", age_seconds=10
        )
        metrics = MetricsRegistry()
        removed = sweep_stale_temporaries(tmp_path, metrics=metrics)
        assert removed == 1
        assert not stale.exists()
        assert young.exists()
        assert metrics.counter("store.tmp_swept") == 1

    def test_store_open_sweeps_by_default(self, tmp_path):
        stale = self._make_tmp(
            tmp_path / "store", "ab/abcd.shard.tmp.123", age_seconds=7200
        )
        metrics = MetricsRegistry()
        ShardStore(tmp_path / "store", FINGERPRINT, metrics=metrics)
        assert not stale.exists()
        assert metrics.counter("store.tmp_swept") == 1

    def test_worker_open_does_not_sweep(self, tmp_path):
        stale = self._make_tmp(
            tmp_path / "store", "ab/abcd.shard.tmp.123", age_seconds=7200
        )
        ShardStore(tmp_path / "store", FINGERPRINT, sweep=False)
        assert stale.exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert sweep_stale_temporaries(tmp_path / "absent") == 0


class TestCodecItemsizeGuard:
    def test_current_platform_passes(self):
        lpm.require_codec_itemsizes()

    def test_mismatch_raises_with_the_offending_typecode(self, monkeypatch):
        monkeypatch.setattr(lpm, "_CODEC_ITEMSIZES", (("I", 8),))
        with pytest.raises(RuntimeError, match="'I'"):
            lpm.require_codec_itemsizes()
