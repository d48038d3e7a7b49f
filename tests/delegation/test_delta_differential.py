"""Differential tests: incremental delta sweeps vs. full recompute.

The incremental runner (``incremental=True``) is a pure performance
change — for every simulation scenario and against both the full
columnar sweep and the trie reference kernel its output must be
byte-identical (the JSONL result file) with
every attrition counter in exact agreement, through the in-process
path, the process-pool path (``jobs=2``), a warm journal replay, and
a mid-sweep crash resumed from the journal.
"""

import datetime

import pytest

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.delegation.delta import DeltaJournal, journal_key, journal_path
from repro.errors import ReproError
from repro.simulation import World, small_scenario
from tests.delegation.reference_kernel import ReferenceInference

D = datetime.date

SCENARIOS = {
    "seed42": small_scenario(),
    "seed7": small_scenario(seed=7),
}
DAYS = 15


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    return SCENARIOS[request.param]


@pytest.fixture(scope="module")
def as2org(scenario):
    return World(scenario).as2org()


@pytest.fixture(scope="module")
def window(scenario):
    start = scenario.bgp_start
    return start, start + datetime.timedelta(days=DAYS)


@pytest.fixture(scope="module")
def full_by_kernel(scenario, as2org, window):
    """Full recompute: the runner's columnar kernel and the reference."""
    start, end = window
    return {
        "columnar": run_inference(
            WorldStreamFactory(scenario), start, end,
            InferenceConfig.extended(), as2org=as2org, jobs=1,
        ),
        "reference": ReferenceInference(
            InferenceConfig.extended(), as2org
        ).infer_range(World(scenario).stream(), start, end),
    }


def _counters(result):
    """The attrition table: every per-filter drop counter."""
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.sanitize_stats.bogon_prefix,
    )


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def _assert_identical(incremental, full, tmp_path):
    assert _daily_bytes(incremental, tmp_path / "inc.jsonl") == \
        _daily_bytes(full, tmp_path / "full.jsonl")
    assert _counters(incremental) == _counters(full)
    assert incremental.observation_dates == full.observation_dates


class TestIncrementalDifferential:
    @pytest.mark.parametrize("kernel", ["columnar", "reference"])
    def test_byte_identical_to_both_kernels(
        self, scenario, as2org, window, full_by_kernel, kernel, tmp_path
    ):
        start, end = window
        incremental = run_inference(
            WorldStreamFactory(scenario), start, end,
            InferenceConfig.extended(), as2org=as2org,
            jobs=1, incremental=True,
        )
        _assert_identical(incremental, full_by_kernel[kernel], tmp_path)
        stats = incremental.runner_stats
        assert stats.incremental
        assert stats.days_computed == DAYS

    def test_baseline_config_identical(self, scenario, window, tmp_path):
        start, end = window
        config = InferenceConfig.baseline()
        full = run_inference(
            WorldStreamFactory(scenario), start, end, config, jobs=1,
        )
        incremental = run_inference(
            WorldStreamFactory(scenario), start, end, config,
            jobs=1, incremental=True,
        )
        _assert_identical(incremental, full, tmp_path)

    def test_jobs2_identical(
        self, scenario, as2org, window, full_by_kernel, tmp_path
    ):
        start, end = window
        incremental = run_inference(
            WorldStreamFactory(scenario), start, end,
            InferenceConfig.extended(), as2org=as2org,
            jobs=2, incremental=True,
        )
        _assert_identical(
            incremental, full_by_kernel["columnar"], tmp_path
        )

    def test_step_days_identical(self, scenario, as2org, tmp_path):
        start = scenario.bgp_start
        end = start + datetime.timedelta(days=21)
        full = run_inference(
            WorldStreamFactory(scenario), start, end,
            InferenceConfig.extended(), as2org=as2org,
            jobs=1, step_days=3,
        )
        incremental = run_inference(
            WorldStreamFactory(scenario), start, end,
            InferenceConfig.extended(), as2org=as2org,
            jobs=1, step_days=3, incremental=True,
        )
        _assert_identical(incremental, full, tmp_path)


class TestJournalReplay:
    def test_warm_replay_identical_without_recompute(
        self, scenario, as2org, window, full_by_kernel, tmp_path
    ):
        start, end = window
        factory = WorldStreamFactory(scenario)
        journal_dir = tmp_path / "journal"
        cold = run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        warm = run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        _assert_identical(warm, full_by_kernel["columnar"], tmp_path)
        assert cold.runner_stats.days_computed == DAYS
        assert warm.runner_stats.days_computed == 0
        assert warm.runner_stats.days_replayed == DAYS
        assert warm.runner_stats.journal == cold.runner_stats.journal

    def test_longer_window_extends_journal(
        self, scenario, as2org, window, tmp_path
    ):
        start, end = window
        factory = WorldStreamFactory(scenario)
        journal_dir = tmp_path / "journal"
        run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        longer = end + datetime.timedelta(days=5)
        full = run_inference(
            factory, start, longer, InferenceConfig.extended(),
            as2org=as2org, jobs=1,
        )
        extended = run_inference(
            factory, start, longer, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        _assert_identical(extended, full, tmp_path)
        assert extended.runner_stats.days_replayed == DAYS
        assert extended.runner_stats.days_computed == 5

    def test_crash_mid_sweep_resumes_from_journal(
        self, scenario, as2org, window, full_by_kernel, tmp_path,
        monkeypatch,
    ):
        start, end = window
        factory = WorldStreamFactory(scenario)
        journal_dir = tmp_path / "journal"
        crash_after = 6
        real_append = DeltaJournal.append
        appended = {"count": 0}

        def exploding_append(self, entry):
            if appended["count"] >= crash_after:
                raise RuntimeError("injected mid-sweep crash")
            appended["count"] += 1
            real_append(self, entry)

        monkeypatch.setattr(DeltaJournal, "append", exploding_append)
        with pytest.raises(RuntimeError, match="injected"):
            run_inference(
                factory, start, end, InferenceConfig.extended(),
                as2org=as2org, jobs=1, incremental=True,
                journal_dir=journal_dir,
            )
        monkeypatch.setattr(DeltaJournal, "append", real_append)

        resumed = run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        _assert_identical(
            resumed, full_by_kernel["columnar"], tmp_path
        )
        # Every day journaled before the crash is replayed, not redone.
        assert resumed.runner_stats.days_replayed == crash_after
        assert resumed.runner_stats.days_computed == DAYS - crash_after

    def test_torn_tail_dropped_and_rewritten(
        self, scenario, as2org, window, full_by_kernel, tmp_path
    ):
        start, end = window
        factory = WorldStreamFactory(scenario)
        journal_dir = tmp_path / "journal"
        cold = run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        import pathlib
        path = pathlib.Path(cold.runner_stats.journal)
        # Tear the tail: truncate mid-way through the last line.
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][:10])
        resumed = run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        _assert_identical(
            resumed, full_by_kernel["columnar"], tmp_path
        )
        assert resumed.runner_stats.days_replayed == DAYS - 1
        # The rewritten journal is valid end to end again.
        assert DeltaJournal(path).serial == DAYS

    def test_foreign_journal_is_ignored(
        self, scenario, as2org, window, full_by_kernel, tmp_path
    ):
        """A journal whose dates do not match the window is not
        trusted — the sweep recomputes and leaves it alone."""
        start, end = window
        factory = WorldStreamFactory(scenario)
        journal_dir = tmp_path / "journal"
        run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        shifted = start + datetime.timedelta(days=1)
        key = journal_key(
            InferenceConfig.extended(), factory.fingerprint(),
            as2org.fingerprint(), shifted, 1,
        )
        # Plant the mismatched journal where the shifted window looks.
        import shutil
        original = journal_path(
            journal_dir,
            journal_key(
                InferenceConfig.extended(), factory.fingerprint(),
                as2org.fingerprint(), start, 1,
            ),
        )
        planted = journal_path(journal_dir, key)
        planted.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(original, planted)
        shifted_run = run_inference(
            factory, shifted, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1, incremental=True,
            journal_dir=journal_dir,
        )
        shifted_full = run_inference(
            factory, shifted, end, InferenceConfig.extended(),
            as2org=as2org, jobs=1,
        )
        _assert_identical(shifted_run, shifted_full, tmp_path)
        assert shifted_run.runner_stats.days_replayed == 0


class TestValidation:
    def test_journal_dir_requires_incremental(self, scenario, window):
        start, end = window
        with pytest.raises(ReproError, match="incremental"):
            run_inference(
                WorldStreamFactory(scenario), start, end,
                InferenceConfig.baseline(), jobs=1,
                journal_dir="/tmp/nope",
            )

    def test_journal_append_rejects_serial_gap(self, tmp_path):
        journal = DeltaJournal(tmp_path / "j.jsonl")
        with pytest.raises(ReproError, match="serial gap"):
            journal.append({"serial": 3, "kind": "delta"})
