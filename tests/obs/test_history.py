"""Tests for the append-only run history and its regression gate."""

import json

import pytest

from repro.cli import main
from repro.errors import DatasetError
from repro.obs import (
    RunHistory,
    find_regressions,
    parse_percent,
    render_diff,
    render_list,
    summarize_manifest,
)
from repro.obs.history import HISTORY_SCHEMA


def _manifest(
    runner_seconds=1.0,
    pairs_seen=100,
    quarantined=0,
    config_hash="abc123" * 8,
    profile=None,
    runner_p99=None,
    mismatched=0,
    malformed=0,
    inputs=None,
):
    """A minimal but structurally faithful manifest payload."""
    gauges = dict(profile or {})
    counters = {"spans.mismatched": mismatched} if mismatched else {}
    if malformed:
        counters["store.malformed"] = malformed
    runner = {
        "count": 1,
        "total_seconds": runner_seconds,
        "mean_seconds": runner_seconds,
        "min_seconds": runner_seconds,
        "max_seconds": runner_seconds,
    }
    if runner_p99 is not None:
        runner.update({
            "total_ns": round(runner_seconds * 1e9),
            "buckets": {"20": 1},
            "p50_seconds": runner_p99,
            "p90_seconds": runner_p99,
            "p99_seconds": runner_p99,
            "p999_seconds": runner_p99,
        })
    return {
        "schema": 2,
        "command": "infer",
        "created": "2026-08-06T00:00:00+00:00",
        "config": {"visibility_threshold": 10},
        "config_hash": config_hash,
        "inputs": inputs or {"stream": "deadbeef"},
        "stages": [
            {
                "name": "(i) sanitize",
                "records_in": pairs_seen + 3,
                "records_out": pairs_seen,
                "dropped": {"bogon_prefix": 3},
            },
        ],
        "cache": {"hits": 4, "misses": 6},
        "degradation": (
            {"quarantined_total": quarantined} if quarantined else None
        ),
        "extra": {
            "scale": "small",
            "seed": 42,
            "runner": {"step_days": 1, "jobs": 2, "store": False},
        },
        "metrics": {
            "counters": counters,
            "gauges": gauges,
            "timers": {
                "runner": runner,
                "runner.fan_in": {
                    "count": 1,
                    "total_seconds": 0.001,
                    "mean_seconds": 0.001,
                    "min_seconds": 0.001,
                    "max_seconds": 0.001,
                },
            },
        },
    }


class TestParsePercent:
    def test_percent_suffix(self):
        assert parse_percent("20%") == pytest.approx(0.20)

    def test_bare_fraction(self):
        assert parse_percent("0.35") == pytest.approx(0.35)

    def test_number_passes_through(self):
        assert parse_percent(0.5) == pytest.approx(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(DatasetError):
            parse_percent("fast-ish")

    def test_negative_rejected(self):
        with pytest.raises(DatasetError):
            parse_percent("-10%")


class TestSummarizeManifest:
    def test_keeps_comparable_facts(self):
        entry = summarize_manifest(_manifest(
            quarantined=2,
            profile={"profile.runner.peak_kb": 1024.0, "other": 1.0},
        ))
        assert entry["command"] == "infer"
        assert entry["stages"]["(i) sanitize"]["in"] == 103
        assert entry["timers"]["runner"]["total_seconds"] == 1.0
        assert entry["cache"] == {"hits": 4, "misses": 6}
        assert entry["quarantined"] == 2
        # Only profile.* gauges travel; the full dump stays behind.
        assert entry["profile"] == {"profile.runner.peak_kb": 1024.0}

    def test_tolerates_sparse_manifest(self):
        entry = summarize_manifest({"schema": 1, "command": "ingest"})
        assert entry["command"] == "ingest"
        assert entry["stages"] == {}
        assert entry["timers"] == {}
        assert entry["quarantined"] == 0

    def test_carries_mean_and_histogram_p99(self):
        entry = summarize_manifest(_manifest(runner_p99=0.9))
        runner = entry["timers"]["runner"]
        assert runner["mean_seconds"] == pytest.approx(1.0)
        assert runner["p99_seconds"] == pytest.approx(0.9)
        # A timer without a p99 simply has none in its entry.
        assert "p99_seconds" not in entry["timers"]["runner.fan_in"]

    def test_mismatched_spans_ride_in_malformed_map(self):
        entry = summarize_manifest(_manifest(mismatched=2))
        assert entry["malformed"]["spans.mismatched"] == 2


class TestRunHistory:
    def test_record_assigns_sequential_ids(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        first = history.record(_manifest())
        second = history.record(_manifest())
        assert first["id"] == 1
        assert second["id"] == 2
        assert [e["id"] for e in history.entries()] == [1, 2]

    def test_record_is_append_only(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        history.record(_manifest())
        before = path.read_text(encoding="utf-8")
        history.record(_manifest())
        after = path.read_text(encoding="utf-8")
        assert after.startswith(before)

    def test_entries_skip_truncated_tail(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = RunHistory(path)
        history.record(_manifest())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 2, "command": "inf')  # crash mid-write
        assert [e["id"] for e in history.entries()] == [1]
        # Recording after a crash starts on a fresh line, so the new
        # run is loadable rather than glued onto the fragment.
        entry = history.record(_manifest())
        assert entry["id"] == 2
        assert [e["id"] for e in history.entries()] == [1, 2]

    def test_missing_file_is_empty(self, tmp_path):
        assert RunHistory(tmp_path / "absent.jsonl").entries() == []

    def test_entry_lookup_and_missing(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(_manifest())
        assert history.entry(1)["id"] == 1
        with pytest.raises(DatasetError):
            history.entry(99)

    def test_latest_on_empty_store(self, tmp_path):
        with pytest.raises(DatasetError):
            RunHistory(tmp_path / "h.jsonl").latest()

    def test_diff_renders(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(_manifest(runner_seconds=1.0))
        history.record(_manifest(runner_seconds=2.0))
        text = history.diff(1, 2)
        assert "run #1" in text and "run #2" in text
        assert "config: identical" in text
        assert "+100.0%" in text

    def test_check_defaults_to_latest(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(_manifest(runner_seconds=1.0))
        history.record(_manifest(runner_seconds=5.0))
        baseline, drift, regressions = history.check(max_regress=0.20)
        assert baseline["id"] == 1
        assert drift == []
        assert any("timer runner" in line for line in regressions)

    def test_check_pairs_by_run_key(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(_manifest(runner_seconds=1.0))
        # Another world: a different key, never the baseline.
        history.record(_manifest(
            runner_seconds=0.1, pairs_seen=7, inputs={"stream": "other"}
        ))
        history.record(_manifest(runner_seconds=1.05))
        baseline, drift, regressions = history.check(max_regress=0.20)
        assert baseline["id"] == 1
        assert drift == regressions == []

    def test_keyless_entries_never_pair(self, tmp_path):
        # Schema-1 entries carry no key, and neither does a run with
        # no config hash: neither is ever a baseline.
        path = tmp_path / "h.jsonl"
        old = summarize_manifest(_manifest())
        del old["key"]
        old["id"] = 1
        path.write_text(json.dumps(old) + "\n", encoding="utf-8")
        history = RunHistory(path)
        history.record(_manifest())
        assert history.check() == (None, [], [])
        history.record(_manifest(config_hash=None))
        history.record(_manifest(config_hash=None))
        assert history.check() == (None, [], [])


class TestFindRegressions:
    def _entries(self, base_kwargs, cand_kwargs):
        return (
            summarize_manifest(_manifest(**base_kwargs)),
            summarize_manifest(_manifest(**cand_kwargs)),
        )

    def test_slowdown_past_limit_flagged(self):
        base, cand = self._entries(
            {"runner_seconds": 1.0}, {"runner_seconds": 1.5}
        )
        regressions = find_regressions(base, cand, max_regress=0.20)
        assert len(regressions) == 1
        assert "timer runner" in regressions[0]

    def test_slowdown_within_limit_passes(self):
        base, cand = self._entries(
            {"runner_seconds": 1.0}, {"runner_seconds": 1.1}
        )
        assert find_regressions(base, cand, max_regress=0.20) == []

    def test_fast_timers_never_gate(self):
        # runner.fan_in doubles but sits under min_seconds: noise.
        base, cand = self._entries(
            {"runner_seconds": 0.002}, {"runner_seconds": 0.040}
        )
        assert find_regressions(
            base, cand, max_regress=0.20, min_seconds=0.05
        ) == []

    def test_quarantine_increase_flagged(self):
        base, cand = self._entries(
            {"quarantined": 0}, {"quarantined": 3}
        )
        regressions = find_regressions(base, cand, max_regress=10.0)
        assert any("quarantined" in line for line in regressions)

    def test_p99_regression_flagged_even_with_flat_total(self):
        # Same wall-clock total, but the tail blew out: the mean gate
        # stays silent and only the p99 gate catches it.
        base, cand = self._entries(
            {"runner_seconds": 1.0, "runner_p99": 0.1},
            {"runner_seconds": 1.0, "runner_p99": 0.8},
        )
        regressions = find_regressions(base, cand, max_regress=0.20)
        assert len(regressions) == 1
        assert "p99" in regressions[0]

    def test_p99_under_noise_floor_never_gates(self):
        base, cand = self._entries(
            {"runner_seconds": 1.0, "runner_p99": 0.001},
            {"runner_seconds": 1.0, "runner_p99": 0.040},
        )
        assert find_regressions(
            base, cand, max_regress=0.20, min_seconds=0.05
        ) == []

    def test_p99_gate_skips_entries_without_histograms(self):
        # An entry without p99s (recorded before timers carried
        # distributions) has nothing for the tail gate to compare.
        base, cand = self._entries(
            {"runner_seconds": 1.0},
            {"runner_seconds": 1.0, "runner_p99": 5.0},
        )
        assert find_regressions(base, cand, max_regress=0.20) == []

    def test_mismatched_span_increase_flagged(self):
        base, cand = self._entries({}, {"mismatched": 1})
        regressions = find_regressions(base, cand, max_regress=10.0)
        assert any("spans.mismatched" in line for line in regressions)

    def test_attrition_drift_needs_same_config(self):
        same_base, same_cand = self._entries(
            {"pairs_seen": 100}, {"pairs_seen": 90}
        )
        drift = find_regressions(same_base, same_cand, max_regress=10.0)
        assert any("determinism" in line for line in drift)
        # Different configs: attrition is expected to move.
        diff_base, diff_cand = self._entries(
            {"pairs_seen": 100},
            {"pairs_seen": 90, "config_hash": "other" * 8},
        )
        assert find_regressions(
            diff_base, diff_cand, max_regress=10.0
        ) == []

    def test_attrition_drift_needs_same_inputs(self):
        # `repro --seed 7 infer` hashes the same InferenceConfig as
        # seed 42 but reads another world: its input fingerprint
        # tells the two apart, so their attrition never "drifts".
        base, cand = self._entries(
            {"pairs_seen": 100},
            {"pairs_seen": 90, "inputs": {"stream": "seed7"}},
        )
        assert find_regressions(base, cand, max_regress=10.0) == []

    def test_peak_floor(self):
        # Below the 1 MiB floor allocator noise is never gated ...
        base, cand = self._entries(
            {"profile": {"profile.runner.peak_kb": 1000.0}},
            {"profile": {"profile.runner.peak_kb": 9000.0}},
        )
        assert find_regressions(base, cand, max_regress=0.20) == []
        # ... at or above it, growth past max_regress is flagged.
        base, cand = self._entries(
            {"profile": {"profile.runner.peak_kb": 2048.0}},
            {"profile": {"profile.runner.peak_kb": 4096.0}},
        )
        (line,) = find_regressions(base, cand, max_regress=0.20)
        assert line.startswith("gauge profile.runner.peak_kb")


class TestCheckExitCodes:
    """``repro history check``: 1 on drift, 3 on timing only, else 0."""

    def _check(self, tmp_path, capsys, *manifests):
        history = tmp_path / "h.jsonl"
        for n, manifest in enumerate(manifests):
            path = tmp_path / f"m{n}.json"
            path.write_text(json.dumps(manifest), encoding="utf-8")
            assert main([
                "history", "--history", str(history), "record", str(path)
            ]) == 0
        capsys.readouterr()
        code = main(["history", "--history", str(history), "check"])
        return code, capsys.readouterr().out

    def test_first_run_of_a_key_passes(self, tmp_path, capsys):
        code, out = self._check(
            tmp_path, capsys,
            _manifest(),
            _manifest(pairs_seen=7, inputs={"stream": "seed7"}),
        )
        assert code == 0
        assert "run 2 (infer) has no earlier run of this kind" in out

    def test_identical_runs_pass(self, tmp_path, capsys):
        code, out = self._check(tmp_path, capsys, _manifest(), _manifest())
        assert code == 0
        assert "run 2 vs run 1: no regressions" in out

    @pytest.mark.parametrize("candidate", [
        {"pairs_seen": 90},
        {"quarantined": 1},
        {"malformed": 1},
        {"mismatched": 1},
    ])
    def test_deterministic_findings_exit_1(
        self, tmp_path, capsys, candidate
    ):
        code, _out = self._check(
            tmp_path, capsys, _manifest(), _manifest(**candidate)
        )
        assert code == 1

    @pytest.mark.parametrize("base, candidate", [
        ({"runner_seconds": 1.0}, {"runner_seconds": 5.0}),
        ({"runner_p99": 0.1}, {"runner_p99": 0.8}),
        ({"profile": {"profile.runner.peak_kb": 2048.0}},
         {"profile": {"profile.runner.peak_kb": 8192.0}}),
    ])
    def test_timing_and_peak_findings_alone_exit_3(
        self, tmp_path, capsys, base, candidate
    ):
        code, out = self._check(
            tmp_path, capsys, _manifest(**base), _manifest(**candidate)
        )
        assert code == 3
        assert "1 regression(s)" in out

    def test_mixed_findings_exit_1(self, tmp_path, capsys):
        code, out = self._check(
            tmp_path, capsys,
            _manifest(runner_seconds=1.0),
            _manifest(runner_seconds=5.0, malformed=2),
        )
        assert code == 1
        assert "2 regression(s)" in out
        assert "store.malformed entries: 0 -> 2" in out


class TestRendering:
    def test_render_list_empty(self):
        assert "empty" in render_list([])

    def test_render_list_table(self, tmp_path):
        history = RunHistory(tmp_path / "h.jsonl")
        history.record(_manifest())
        text = render_list(history.entries())
        assert "run history" in text
        assert "infer" in text
        assert "40%" in text  # 4 hits / 10 total

    def test_render_diff_reports_memory(self):
        base = summarize_manifest(
            _manifest(profile={"profile.runner.peak_kb": 100.0})
        )
        cand = summarize_manifest(
            _manifest(profile={"profile.runner.peak_kb": 900.0})
        )
        text = render_diff(base, cand)
        assert "profile.runner.peak_kb" in text
        assert "900 kB" in text

    def test_render_diff_added_and_removed_timers(self):
        base = summarize_manifest(_manifest())
        cand = summarize_manifest(_manifest())
        del cand["timers"]["runner.fan_in"]
        cand["timers"]["runner.cache_write"] = {
            "count": 1, "total_seconds": 0.1,
        }
        text = render_diff(base, cand)
        assert "added" in text and "removed" in text


def test_entries_are_plain_json_lines(tmp_path):
    path = tmp_path / "h.jsonl"
    RunHistory(path).record(_manifest())
    (line,) = path.read_text(encoding="utf-8").splitlines()
    payload = json.loads(line)
    assert payload["id"] == 1
    assert payload["schema"] == HISTORY_SCHEMA == 2
    assert payload["key"] == {
        "command": "infer",
        "config_hash": "abc123" * 8,
        "inputs": {"stream": "deadbeef"},
        "runner": {"step_days": 1, "jobs": 2, "store": False},
    }
