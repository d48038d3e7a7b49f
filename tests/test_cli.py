"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["market"])
        assert args.seed == 42
        assert args.scale == "small"

    def test_advise_positionals(self):
        args = build_parser().parse_args(["advise", "22", "5"])
        assert args.prefix_length == 22
        assert args.horizon_years == 5.0

    def test_runner_flags(self):
        args = build_parser().parse_args([
            "infer", "--jobs", "4", "--store", "/tmp/s",
        ])
        assert (args.jobs, args.store) == (4, "/tmp/s")
        args = build_parser().parse_args(["figures", "out"])
        assert args.jobs is None
        assert args.store is None
        # The store is the one persistent tier; the old cache and
        # journal flags are gone rather than aliased.
        for argv in (["--cache-dir", "/tmp/c"], ["--journal", "/tmp/j"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["infer", *argv])


class TestCommands:
    def test_market(self, capsys):
        assert main(["market"]) == 0
        out = capsys.readouterr().out
        assert "Market report" in out
        assert "mean 2020 price" in out
        assert "leasing range" in out

    def test_advise(self, capsys):
        assert main(["advise", "24", "3"]) == 0
        out = capsys.readouterr().out
        assert "/24" in out
        assert "break-even" in out
        assert "buy" in out and "lease" in out

    def test_infer_tail(self, capsys):
        assert main(["infer", "--step-days", "7", "--tail", "3"]) == 0
        out = capsys.readouterr().out
        assert "extended algorithm" in out
        # Title + header + separator + 3 rows.
        assert len(out.strip().splitlines()) == 6

    def test_infer_with_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = [
            "infer", "--step-days", "7", "--tail", "2",
            "--jobs", "1", "--store", str(store),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert list(store.rglob("*.shard"))  # input shards written
        assert list(store.rglob("*.rpd"))  # result shards written
        assert main(argv) == 0  # warm re-run: identical table
        assert capsys.readouterr().out == cold

    def test_infer_baseline(self, capsys):
        assert main([
            "infer", "--baseline", "--step-days", "14", "--tail", "2"
        ]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_generate(self, tmp_path, capsys):
        assert main([
            "generate", str(tmp_path / "data"), "--no-rpki",
            "--collector-days", "1",
        ]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["collector_days"]
        assert (tmp_path / "data" / "manifest.json").exists()

    def test_figures(self, tmp_path, capsys):
        assert main(["figures", str(tmp_path / "figs")]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig4", "fig5", "fig6"):
            assert name in out
            assert (tmp_path / "figs" / f"{name}.csv").exists()

    def test_figures_skip_fig6(self, tmp_path, capsys):
        assert main([
            "figures", str(tmp_path / "figs"), "--skip-fig6",
        ]) == 0
        assert not (tmp_path / "figs" / "fig6.csv").exists()

    def test_seed_changes_output(self, capsys):
        main(["--seed", "1", "market"])
        first = capsys.readouterr().out
        main(["--seed", "2", "market"])
        second = capsys.readouterr().out
        assert first != second

    def test_module_invocation(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "advise"],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert completed.returncode == 0, completed.stderr
        assert "break-even" in completed.stdout


class TestErrorPaths:
    """Bad flags exit non-zero with a one-line message, no traceback."""

    def _assert_clean_failure(self, argv, capsys, match):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("repro: error:")
        assert match in err_lines[0]
        assert "Traceback" not in captured.err

    def test_unknown_scale(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "galactic", "market"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_jobs_zero(self, capsys):
        self._assert_clean_failure(
            ["infer", "--jobs", "0"], capsys, "--jobs"
        )

    def test_step_days_zero(self, capsys):
        for command in ("infer", "serve"):
            self._assert_clean_failure(
                [command, "--step-days", "0"], capsys, "--step-days"
            )

    def test_jobs_negative(self, capsys):
        self._assert_clean_failure(
            ["figures", "out", "--jobs", "-3"], capsys, "--jobs"
        )

    def test_store_not_creatable(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        self._assert_clean_failure(
            ["infer", "--store", str(blocker / "store")],
            capsys, "--store",
        )

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root ignores directory permissions"
    )
    def test_store_unwritable(self, tmp_path, capsys):
        read_only = tmp_path / "ro"
        read_only.mkdir(mode=0o500)
        try:
            self._assert_clean_failure(
                ["infer", "--store", str(read_only)],
                capsys, "not writable",
            )
        finally:
            read_only.chmod(0o700)

    def test_metrics_out_is_directory(self, tmp_path, capsys):
        self._assert_clean_failure(
            ["infer", "--metrics-out", str(tmp_path)],
            capsys, "is a directory",
        )

    def test_metrics_out_missing_parent(self, tmp_path, capsys):
        self._assert_clean_failure(
            ["market", "--metrics-out", str(tmp_path / "no" / "m.json")],
            capsys, "does not exist",
        )

    def test_metrics_out_unwritable_parent(self, tmp_path, capsys):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        read_only = tmp_path / "ro"
        read_only.mkdir(mode=0o500)
        try:
            self._assert_clean_failure(
                ["market", "--metrics-out", str(read_only / "m.json")],
                capsys, "not writable",
            )
        finally:
            read_only.chmod(0o700)

    def test_trace_out_is_directory(self, tmp_path, capsys):
        self._assert_clean_failure(
            ["infer", "--trace-out", str(tmp_path)],
            capsys, "is a directory",
        )

    def test_trace_out_missing_parent(self, tmp_path, capsys):
        self._assert_clean_failure(
            ["market", "--trace-out", str(tmp_path / "no" / "t.json")],
            capsys, "does not exist",
        )

    def test_trace_out_unwritable_parent(self, tmp_path, capsys):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        read_only = tmp_path / "ro"
        read_only.mkdir(mode=0o500)
        try:
            self._assert_clean_failure(
                ["infer", "--trace-out", str(read_only / "t.json")],
                capsys, "not writable",
            )
        finally:
            read_only.chmod(0o700)

    def test_manifest_missing_file(self, tmp_path, capsys):
        self._assert_clean_failure(
            ["manifest", str(tmp_path / "absent.json")],
            capsys, "no manifest",
        )

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        self._assert_clean_failure(
            ["trace", "summarize", str(tmp_path / "absent.json")],
            capsys, "no trace file",
        )

    def test_history_check_bad_percentage(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        self._assert_clean_failure(
            ["history", "--history", str(history),
             "check", "--max-regress", "soonish"],
            capsys, "not a percentage",
        )

    def test_broken_pipe_is_silent(self):
        import subprocess
        import sys

        completed = subprocess.run(
            f"{sys.executable} -m repro advise | head -1",
            shell=True,
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert completed.returncode == 0  # head's status, not repro's
        assert "repro: error" not in completed.stderr
        assert "Traceback" not in completed.stderr



class TestKernelFlag:
    def test_bad_kernel_rejected(self, capsys):
        # One per-day kernel: there is no flag left to select another.
        for kernel in ("object", "columnar"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["infer", "--kernel", kernel])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServeCommand:
    """The `repro serve` subcommand: flags, validation, smoke run."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.whois_port == 4343
        assert args.http_port == 8080
        assert args.rate_limit == 50.0
        assert args.burst == 100
        assert args.max_clients == 4096
        assert args.serve_seconds is None
        assert args.drain_grace == 5.0
        assert args.ready_file is None
        assert not args.no_infer

    def _fail(self, argv, capsys, match):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("repro: error:")
        assert match in err_lines[0]

    def test_bad_port(self, capsys):
        self._fail(
            ["serve", "--whois-port", "99999"], capsys, "--whois-port"
        )
        self._fail(
            ["serve", "--http-port", "-1"], capsys, "--http-port"
        )

    def test_bad_limiter_flags(self, capsys):
        self._fail(["serve", "--rate-limit", "0"], capsys, "--rate-limit")
        self._fail(["serve", "--burst", "0"], capsys, "--burst")
        self._fail(
            ["serve", "--max-clients", "0"], capsys, "--max-clients"
        )

    def test_bad_durations(self, capsys):
        self._fail(
            ["serve", "--serve-seconds", "-1"], capsys, "--serve-seconds"
        )
        self._fail(
            ["serve", "--drain-grace", "-0.5"], capsys, "--drain-grace"
        )

    def test_ready_file_missing_parent(self, tmp_path, capsys):
        self._fail(
            ["serve", "--ready-file", str(tmp_path / "no" / "r.txt")],
            capsys, "--ready-file",
        )

    def test_history_record_missing_parent(self, tmp_path, capsys):
        self._fail(
            [
                "history", "--history", str(tmp_path / "no" / "h.jsonl"),
                "record", str(tmp_path / "m.json"),
            ],
            capsys, "--history",
        )

    def test_smoke_run_with_artifacts(self, tmp_path, capsys):
        ready = tmp_path / "ready.txt"
        manifest = tmp_path / "manifest.json"
        assert main([
            "serve", "--no-infer",
            "--whois-port", "0", "--http-port", "0",
            "--serve-seconds", "0.2",
            "--ready-file", str(ready),
            "--metrics-out", str(manifest),
        ]) == 0
        host, whois_port, http_port = ready.read_text().split()
        assert host == "127.0.0.1"
        assert int(whois_port) > 0 and int(http_port) > 0
        out = capsys.readouterr().out
        assert "repro serve" in out
        assert "Serving session summary" in out
        payload = json.loads(manifest.read_text())
        assert payload["command"] == "serve"
        assert payload["extra"]["serve"]["status"] == "draining"
        # The end-to-end benchmark reads the start-up time from here.
        load = payload["metrics"]["timers"]["serve.load"]
        assert load["total_seconds"] > 0
        assert "p99_seconds" in load
