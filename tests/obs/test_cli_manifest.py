"""End-to-end tests for ``--metrics-out`` manifests and their invariants.

Two properties anchor this module:

* instrumentation is *inert*: running with ``--metrics-out`` must not
  change a single byte of any exported figure CSV, sequential or
  parallel; and
* attrition is *deterministic*: the per-filter stage table an infer
  manifest reports must be identical for ``--jobs 1`` and ``--jobs 2``
  (only wall-clock timings may differ).
"""

import json

import pytest

from repro.cli import main
from repro.obs import load_manifest, render_manifest

#: Figure CSVs with fully deterministic content.
_DATA_FIGS = ("fig1", "fig2", "fig4", "fig5", "fig6")

_INFER_ARGS = ["infer", "--step-days", "7", "--tail", "1"]


def _run_figures(tmp_path, name, extra):
    out = tmp_path / name
    assert main(["figures", str(out)] + extra) == 0
    return out


def _read_csvs(directory):
    return {
        fig: (directory / f"{fig}.csv").read_bytes()
        for fig in _DATA_FIGS
    }


def _strip_seconds(stages):
    return [
        {key: value for key, value in stage.items() if key != "seconds"}
        for stage in stages
    ]


class TestFiguresDifferential:
    def test_metrics_out_never_changes_csvs(self, tmp_path, capsys):
        plain_seq = _run_figures(tmp_path, "plain_seq", [])
        with_seq = _run_figures(
            tmp_path, "with_seq",
            ["--metrics-out", str(tmp_path / "seq.json")],
        )
        plain_par = _run_figures(tmp_path, "plain_par", ["--jobs", "2"])
        with_par = _run_figures(
            tmp_path, "with_par",
            ["--jobs", "2", "--metrics-out", str(tmp_path / "par.json")],
        )
        capsys.readouterr()

        baseline = _read_csvs(plain_seq)
        # Instrumented runs are byte-identical to plain runs...
        assert _read_csvs(with_seq) == baseline
        assert _read_csvs(with_par) == baseline
        # ...and parallelism itself never changes the data series.
        assert _read_csvs(plain_par) == baseline
        # Both manifests were written and are loadable.
        assert load_manifest(tmp_path / "seq.json")["command"] == "figures"
        assert load_manifest(tmp_path / "par.json")["command"] == "figures"

    def test_runner_stats_csv_stable_modulo_timing(self, tmp_path, capsys):
        plain = _run_figures(tmp_path, "p", ["--jobs", "2"])
        instrumented = _run_figures(
            tmp_path, "i",
            ["--jobs", "2", "--metrics-out", str(tmp_path / "m.json")],
        )
        capsys.readouterr()

        def rows_without_elapsed(directory):
            lines = (directory / "fig6_runner.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert rows_without_elapsed(instrumented) == \
            rows_without_elapsed(plain)


class TestInferManifest:
    def _infer_manifest(self, tmp_path, name, jobs, capsys):
        path = tmp_path / name
        argv = ["infer", *_INFER_ARGS[1:],
                "--jobs", str(jobs), "--metrics-out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        return load_manifest(path)

    def test_manifest_contents(self, tmp_path, capsys):
        store = tmp_path / "store"
        path = tmp_path / "m.json"
        argv = _INFER_ARGS + [
            "--jobs", "1", "--store", str(store),
            "--metrics-out", str(path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        payload = load_manifest(path)

        assert payload["command"] == "infer"
        assert payload["config"]["same_org_filter"] is True
        assert len(payload["config_hash"]) == 64
        assert "stream" in payload["inputs"]
        assert "as2org" in payload["inputs"]

        stages = {stage["name"]: stage for stage in payload["stages"]}
        # All five §4 filter stages appear, with per-filter attrition.
        for name in ("(i) sanitize", "(ii) visibility",
                     "(iii) unique-origin", "(iv) same-org",
                     "(v) consistency"):
            assert name in stages
        assert stages["(ii) visibility"]["records_in"] > 0
        for stage in payload["stages"]:
            assert stage["records_in"] >= stage["records_out"] or \
                stage["name"] == "(v) consistency"

        # Cold run: everything was computed, nothing cached.
        assert payload["cache"]["hits"] == 0
        assert payload["cache"]["misses"] > 0

        timers = payload["metrics"]["timers"]
        assert timers["runner.compute.day"]["count"] == \
            payload["cache"]["misses"]
        assert payload["extra"]["scale"] == "small"

        # Warm re-run against the same store flips the counters.
        path2 = tmp_path / "m2.json"
        assert main(_INFER_ARGS + [
            "--jobs", "1", "--store", str(store),
            "--metrics-out", str(path2),
        ]) == 0
        capsys.readouterr()
        warm = load_manifest(path2)
        assert warm["cache"]["hits"] == payload["cache"]["misses"]
        assert warm["cache"]["misses"] == 0

    def test_attrition_identical_across_jobs(self, tmp_path, capsys):
        sequential = self._infer_manifest(tmp_path, "j1.json", 1, capsys)
        parallel = self._infer_manifest(tmp_path, "j2.json", 2, capsys)

        # Stage tables agree exactly once nondeterministic wall-clock
        # values are stripped.
        assert _strip_seconds(sequential["stages"]) == \
            _strip_seconds(parallel["stages"])

        # And the underlying per-filter counters agree exactly.
        def pipeline_counters(payload):
            return {
                name: value
                for name, value in payload["metrics"]["counters"].items()
                if name.startswith("pipeline.")
            }

        counters = pipeline_counters(sequential)
        assert counters == pipeline_counters(parallel)
        assert counters["pipeline.pairs_seen"] > 0
        assert counters["pipeline.delegations"] > 0

    def test_manifest_command_renders(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(_INFER_ARGS + [
            "--jobs", "1", "--metrics-out", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["manifest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest: infer" in out
        assert "per-stage attrition" in out
        assert "(iv) same-org" in out
        assert "pipeline.pairs_seen" in out

    def test_manifest_command_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "not.json"
        path.write_text(json.dumps({"schema": 999}), encoding="utf-8")
        assert main(["manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err


class TestMarketManifest:
    def test_market_writes_manifest(self, tmp_path, capsys):
        path = tmp_path / "market.json"
        assert main(["market", "--metrics-out", str(path)]) == 0
        report = capsys.readouterr().out
        assert "Market report" in report
        payload = load_manifest(path)
        assert payload["command"] == "market"
        assert payload["metrics"]["counters"]["market.priced_transactions"] > 0
        assert "market.prices" in payload["metrics"]["timers"]
        # The report itself is unchanged by instrumentation.
        assert main(["market"]) == 0
        assert capsys.readouterr().out == report

    def test_render_smoke(self, tmp_path, capsys):
        path = tmp_path / "market.json"
        assert main(["market", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        text = render_manifest(load_manifest(path))
        assert "run manifest: market" in text
