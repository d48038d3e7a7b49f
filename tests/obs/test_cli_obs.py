"""End-to-end tests for ``--trace-out``, ``--profile-mem``, and the
``trace`` / ``history`` subcommands.

The same two invariants as ``--metrics-out`` anchor the new flags:
tracing and profiling are *inert* (no figure CSV byte changes, no
attrition drift, sequential or parallel), and the artifacts they
produce round-trip through their own analysis commands.
"""

import json

import pytest

from repro.cli import main
from repro.obs import load_manifest, load_trace

_INFER_ARGS = ["infer", "--step-days", "7", "--tail", "1"]

_DATA_FIGS = ("fig1", "fig2", "fig4", "fig5", "fig6")


def _run_infer(capsys, extra):
    assert main(_INFER_ARGS + extra) == 0
    return capsys.readouterr().out


def _strip_seconds(stages):
    return [
        {key: value for key, value in stage.items() if key != "seconds"}
        for stage in stages
    ]


class TestTraceOut:
    def test_parallel_run_traces_multiple_lanes(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        _run_infer(capsys, ["--jobs", "2", "--trace-out", str(trace_path)])
        payload = load_trace(trace_path)
        spans = [
            e for e in payload["traceEvents"] if e.get("ph") == "X"
        ]
        assert spans
        lanes = {e["args"]["lane"] for e in spans}
        assert "main" in lanes
        workers = {l for l in lanes if l.startswith("worker-")}
        # Two jobs over multiple day-chunks: both pool lanes appear.
        assert len(workers) >= 2
        # Worker day spans carry the runner's dotted stage names.
        assert any(
            e["name"] == "runner.compute.day" for e in spans
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_generator_layers_nest_under_pairs_on(
        self, tmp_path, capsys, jobs
    ):
        trace_path = tmp_path / "t.json"
        manifest_path = tmp_path / "m.json"
        _run_infer(capsys, [
            "--jobs", jobs,
            "--trace-out", str(trace_path),
            "--metrics-out", str(manifest_path),
        ])
        names = [
            e["name"] for e in load_trace(trace_path)["traceEvents"]
            if e.get("ph") == "X"
        ]
        computed = load_manifest(manifest_path)["cache"]["misses"]
        assert computed > 0
        parent = "runner.compute.day.stream.pairs_on"
        assert names.count(parent) == computed
        for child in ("simulation.announce", "bgp.aggregate"):
            assert names.count(f"{parent}.{child}") == computed
            # Only ever opened inside ``stream.pairs_on``.
            assert [n for n in names if n.endswith(child)] == [
                f"{parent}.{child}"
            ] * computed

    def test_trace_is_valid_chrome_json(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        _run_infer(capsys, ["--jobs", "1", "--trace-out", str(trace_path)])
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert isinstance(payload["traceEvents"], list)
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "M")
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0

    def test_trace_and_metrics_together(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        manifest_path = tmp_path / "m.json"
        _run_infer(capsys, [
            "--jobs", "2",
            "--trace-out", str(trace_path),
            "--metrics-out", str(manifest_path),
        ])
        manifest = load_manifest(manifest_path)
        trace = load_trace(trace_path)
        # The tracing registry still feeds the manifest completely.
        assert manifest["metrics"]["timers"]["runner.compute.day"][
            "count"] == manifest["cache"]["misses"]
        assert trace["traceEvents"]

    def test_summarize_reads_cli_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        _run_infer(capsys, ["--jobs", "2", "--trace-out", str(trace_path)])
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-lane utilization" in out
        assert "critical path" in out
        assert "slowest spans" in out
        assert "worker-" in out

    def test_summarize_top_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        _run_infer(capsys, ["--jobs", "1", "--trace-out", str(trace_path)])
        assert main([
            "trace", "summarize", str(trace_path), "--top", "3"
        ]) == 0
        assert "top 3 slowest spans" in capsys.readouterr().out

    def test_ingest_and_market_accept_trace_out(self, tmp_path, capsys):
        dataset = tmp_path / "data"
        assert main([
            "generate", str(dataset), "--collector-days", "1", "--no-rpki"
        ]) == 0
        capsys.readouterr()
        ingest_trace = tmp_path / "ingest.json"
        assert main([
            "ingest", str(dataset), "--trace-out", str(ingest_trace)
        ]) == 0
        capsys.readouterr()
        names = {
            e["name"]
            for e in load_trace(ingest_trace)["traceEvents"]
            if e.get("ph") == "X"
        }
        assert {"ingest.transfers", "ingest.scrapes",
                "ingest.whois"} <= names
        market_trace = tmp_path / "market.json"
        assert main(["market", "--trace-out", str(market_trace)]) == 0
        capsys.readouterr()
        names = {
            e["name"]
            for e in load_trace(market_trace)["traceEvents"]
            if e.get("ph") == "X"
        }
        assert {"market.prices", "market.transfers",
                "market.leasing"} <= names


class TestObservabilityIsInert:
    """New flags must never change what the pipeline computes."""

    def test_infer_output_identical_with_all_flags(self, capsys, tmp_path):
        for jobs in ("1", "2"):
            plain = _run_infer(capsys, ["--jobs", jobs])
            instrumented = _run_infer(capsys, [
                "--jobs", jobs,
                "--trace-out", str(tmp_path / f"t{jobs}.json"),
                "--profile-mem",
                "--metrics-out", str(tmp_path / f"m{jobs}.json"),
            ])
            assert instrumented == plain

    def test_figures_csvs_identical_with_all_flags(self, tmp_path, capsys):
        def run(name, extra):
            out = tmp_path / name
            assert main(["figures", str(out)] + extra) == 0
            capsys.readouterr()
            return {
                fig: (out / f"{fig}.csv").read_bytes()
                for fig in _DATA_FIGS
            }

        baseline = run("plain", [])
        traced_seq = run("traced_seq", [
            "--trace-out", str(tmp_path / "seq.json"), "--profile-mem",
        ])
        traced_par = run("traced_par", [
            "--jobs", "2",
            "--trace-out", str(tmp_path / "par.json"), "--profile-mem",
        ])
        assert traced_seq == baseline
        assert traced_par == baseline

    def test_attrition_identical_with_tracing(self, tmp_path, capsys):
        def manifest_for(extra, name):
            path = tmp_path / name
            _run_infer(capsys, extra + ["--metrics-out", str(path)])
            return load_manifest(path)

        plain = manifest_for(["--jobs", "1"], "plain.json")
        traced = manifest_for(
            ["--jobs", "2", "--trace-out", str(tmp_path / "t.json"),
             "--profile-mem"],
            "traced.json",
        )
        assert _strip_seconds(plain["stages"]) == \
            _strip_seconds(traced["stages"])


class TestProfileMem:
    def test_profile_gauges_in_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        _run_infer(capsys, [
            "--jobs", "2", "--profile-mem", "--metrics-out", str(path)
        ])
        gauges = load_manifest(path)["metrics"]["gauges"]
        profile = {
            name: value for name, value in gauges.items()
            if name.startswith("profile.") and name.endswith(".peak_kb")
        }
        assert profile, "expected profile.* gauges in the manifest"
        # Worker stages fanned their peaks back to the parent.
        assert any("runner.compute.day" in name for name in profile)
        assert all(value > 0 for value in profile.values())

    def test_no_profile_gauges_without_flag(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        _run_infer(capsys, ["--jobs", "1", "--metrics-out", str(path)])
        gauges = load_manifest(path)["metrics"]["gauges"]
        assert not any(name.startswith("profile.") for name in gauges)

    def test_profiled_run_stops_tracing(
        self, tmp_path, capsys, monkeypatch
    ):
        """An in-process ``--profile-mem`` run must not leave
        tracemalloc on for the rest of the interpreter (every later
        allocation, and every process forked later, would pay for
        it)."""
        import tracemalloc

        import repro.delegation
        from repro.errors import ReproError

        if tracemalloc.is_tracing():
            tracemalloc.stop()
        args = ["--jobs", "1", "--profile-mem",
                "--metrics-out", str(tmp_path / "m.json")]
        _run_infer(capsys, args)
        assert not tracemalloc.is_tracing()

        # The same holds when the command fails after profiling began.
        def fail(*_args, **_kwargs):
            assert tracemalloc.is_tracing()
            raise ReproError("injected failure")

        monkeypatch.setattr(repro.delegation, "run_inference", fail)
        assert main(_INFER_ARGS + args) == 2
        assert "injected failure" in capsys.readouterr().err
        assert not tracemalloc.is_tracing()


class TestPromOut:
    def test_infer_writes_valid_prometheus_text(self, tmp_path, capsys):
        from repro.obs.telemetry import parse_prometheus_text

        prom = tmp_path / "metrics.prom"
        _run_infer(capsys, ["--jobs", "2", "--prom-out", str(prom)])
        families = parse_prometheus_text(
            prom.read_text(encoding="utf-8")
        )
        # The runner's per-day latency fans in as a real histogram.
        day = families["repro_runner_compute_day_seconds"]
        assert day["type"] == "histogram"
        assert families["repro_pipeline_pairs_seen_total"]["type"] == (
            "counter"
        )

    def test_prom_out_is_inert(self, tmp_path, capsys):
        for jobs in ("1", "2"):
            plain = _run_infer(capsys, ["--jobs", jobs])
            instrumented = _run_infer(capsys, [
                "--jobs", jobs,
                "--prom-out", str(tmp_path / f"m{jobs}.prom"),
            ])
            assert instrumented == plain

    def test_figures_csvs_identical_with_prom_out(self, tmp_path, capsys):
        def run(name, extra):
            out = tmp_path / name
            assert main(["figures", str(out)] + extra) == 0
            capsys.readouterr()
            return {
                fig: (out / f"{fig}.csv").read_bytes()
                for fig in _DATA_FIGS
            }

        baseline = run("plain", [])
        prom_seq = run("prom_seq", [
            "--prom-out", str(tmp_path / "seq.prom"),
        ])
        prom_par = run("prom_par", [
            "--jobs", "2", "--prom-out", str(tmp_path / "par.prom"),
        ])
        assert prom_seq == baseline
        assert prom_par == baseline

    def test_prom_out_bad_paths_rejected(self, tmp_path, capsys):
        for bad in (tmp_path, tmp_path / "no" / "m.prom"):
            assert main(_INFER_ARGS + ["--prom-out", str(bad)]) == 2
            err = capsys.readouterr().err
            assert "--prom-out" in err


class TestObsTopCli:
    def test_parser_wiring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "obs", "top", "localhost:8080",
            "--interval", "0.5", "--count", "2", "--no-clear",
        ])
        assert args.target == "localhost:8080"
        assert args.interval == 0.5
        assert args.count == 2
        assert args.no_clear

    def test_unreachable_target_is_clean_error(self, capsys):
        assert main([
            "obs", "top", "127.0.0.1:1", "--count", "1"
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err

    def test_top_against_live_server(self, tmp_path, capsys):
        """End-to-end: one dashboard frame from a real CLI server."""
        import threading
        import time as time_module

        ready = tmp_path / "ready.txt"
        server = threading.Thread(target=main, args=([
            "serve", "--no-infer",
            "--whois-port", "0", "--http-port", "0",
            "--serve-seconds", "3",
            "--ready-file", str(ready),
        ],))
        server.start()
        try:
            deadline = time_module.monotonic() + 10.0
            while not ready.exists():
                assert time_module.monotonic() < deadline, "no ready file"
                time_module.sleep(0.02)
            host, _whois, http_port = ready.read_text().split()
            assert main([
                "obs", "top", f"{host}:{http_port}",
                "--count", "1", "--no-clear",
            ]) == 0
            out = capsys.readouterr().out
            assert "repro obs top — ok" in out
            assert "1m" in out and "5m" in out
        finally:
            server.join(timeout=15.0)
        assert not server.is_alive()


class TestHistoryCli:
    @pytest.fixture()
    def recorded(self, tmp_path, capsys):
        """Two recorded infer runs sharing one history store."""
        history = tmp_path / "h.jsonl"
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            _run_infer(capsys, ["--jobs", "1",
                                "--metrics-out", str(path)])
            assert main([
                "history", "--history", str(history),
                "record", str(path),
            ]) == 0
            capsys.readouterr()
        return history

    def test_record_and_list(self, recorded, capsys):
        assert main([
            "history", "--history", str(recorded), "list"
        ]) == 0
        out = capsys.readouterr().out
        assert "run history" in out
        assert "infer" in out

    def test_diff(self, recorded, capsys):
        assert main([
            "history", "--history", str(recorded), "diff", "1", "2"
        ]) == 0
        out = capsys.readouterr().out
        assert "config: identical" in out
        assert "stage attrition" in out
        assert "same" in out

    def test_check_passes_between_identical_runs(self, recorded, capsys):
        # Generous limit: wall-clock noise between two identical tiny
        # runs must not fail the gate.
        assert main([
            "history", "--history", str(recorded),
            "check", "--max-regress", "500%",
        ]) == 0
        assert "run 2 vs run 1: no regressions" in capsys.readouterr().out

    def test_check_exits_nonzero_on_regression(self, recorded, capsys):
        # Forge a much slower third run from run 1's entry.
        entries = [
            json.loads(line)
            for line in recorded.read_text(encoding="utf-8").splitlines()
        ]
        slow = dict(entries[0])
        slow["id"] = 3
        slow["timers"] = {
            name: {
                "count": stats["count"],
                "total_seconds": stats["total_seconds"] * 100 + 10,
            }
            for name, stats in slow["timers"].items()
        }
        with open(recorded, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(slow, sort_keys=True) + "\n")
        # Timing findings alone only warn: exit 3, not 1.
        assert main([
            "history", "--history", str(recorded),
            "check", "--max-regress", "20%", "--min-seconds", "0.0001",
        ]) == 3
        out = capsys.readouterr().out
        assert "run 3 vs run 2" in out
        assert "regression" in out
        assert "timer" in out

    def test_check_exits_nonzero_on_p99_regression(self, recorded, capsys):
        # Forge a run whose totals are untouched but whose recorded
        # tail latencies blew out: only the p99 gate can catch it.
        entries = [
            json.loads(line)
            for line in recorded.read_text(encoding="utf-8").splitlines()
        ]
        slow = dict(entries[0])
        slow["id"] = 3
        slow["timers"] = {
            name: dict(
                stats,
                p99_seconds=stats["p99_seconds"] * 100 + 10,
            ) if "p99_seconds" in stats else dict(stats)
            for name, stats in slow["timers"].items()
        }
        assert slow["timers"] != entries[0]["timers"], \
            "expected recorded p99s to forge a regression from"
        with open(recorded, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(slow, sort_keys=True) + "\n")
        assert main([
            "history", "--history", str(recorded),
            "check", "--max-regress", "20%", "--min-seconds", "0.0000001",
        ]) == 3
        out = capsys.readouterr().out
        assert "p99" in out

    def test_check_pairs_only_runs_of_one_kind(
        self, recorded, tmp_path, capsys
    ):
        # Another seed hashes the same InferenceConfig, but its input
        # fingerprint differs: no baseline, not "attrition drift".
        # Other runner settings are another kind of run, too.
        for argv in (
            ["--seed", "7"] + _INFER_ARGS + ["--jobs", "1"],
            _INFER_ARGS + ["--jobs", "2"],
        ):
            path = tmp_path / "other.json"
            assert main(argv + ["--metrics-out", str(path)]) == 0
            assert main([
                "history", "--history", str(recorded), "record", str(path)
            ]) == 0
            capsys.readouterr()
            assert main([
                "history", "--history", str(recorded), "check",
            ]) == 0
            assert "no earlier run of this kind" in capsys.readouterr().out

    def test_record_reports_id_and_store(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        _run_infer(capsys, ["--jobs", "1", "--metrics-out", str(path)])
        history = tmp_path / "h.jsonl"
        assert main([
            "history", "--history", str(history), "record", str(path)
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded run 1" in out
        assert "h.jsonl" in out

    def test_record_missing_manifest(self, tmp_path, capsys):
        assert main([
            "history", "--history", str(tmp_path / "h.jsonl"),
            "record", str(tmp_path / "absent.json"),
        ]) == 2
        assert "no manifest" in capsys.readouterr().err
