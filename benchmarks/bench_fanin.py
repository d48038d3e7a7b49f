"""Fan-in smoke benchmark: shared-memory results at internet scale.

Runs the internet preset's multi-year window (subsampled with
``step_days``) through both result transports — the shared-memory
fan-in and the pickled fallback a worker takes when it cannot get a
segment (forced here by patching ``runner._create_worker_segment``
before the pool forks) — and asserts them byte-identical.

The perf claim is measured on the warm store: with its ``results/``
namespace removed, a warm sweep serves warm *input* shards but still
re-runs the kernel every day, while the same store with its result
shards in place maps every day's finished result and never touches
the kernel.  The result-shard sweep must beat the input-shard sweep
by ``SPEEDUP_FLOOR`` wall-clock (best of ``ROUNDS`` alternating
pairs, so one scheduler hiccup on a sub-second sweep cannot decide
the verdict).  The transport claim is a heap peak: a computing
sweep's parent-process peak (tracemalloc, parent only — segment views
are mapped, not allocated) must come in strictly below the same sweep
with the pickled fallback forced.

Timings, transport gauges, and parent heap peaks land in
``BENCH_fanin.json``; a final ``/dev/shm`` sweep asserts the run
leaked no segments.
"""

import gc
import pathlib
import shutil
import time

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.delegation import runner
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, internet_scenario

#: Sample the 882-day window every N days (10 sampled days).
STEP_DAYS = 90

#: Warm result shards (kernel skipped) vs warm input shards (kernel
#: re-run) wall-clock floor.
SPEEDUP_FLOOR = 1.3

#: Alternating (input shards, result shards) pairs timed for the floor.
ROUNDS = 3

SHM_DIR = pathlib.Path("/dev/shm")


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def _segments():
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("rpfi*")}


def _max_peak_kb(metrics):
    peaks = {
        name: value
        for name, value in metrics.gauges().items()
        if name.startswith("profile.") and name.endswith(".peak_kb")
    }
    return max(peaks.values()), peaks


def test_fanin_internet_sweep(record_bench_json, tmp_path, monkeypatch):
    scenario = internet_scenario()
    factory = WorldStreamFactory(scenario)
    as2org = World(scenario).as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    days = len(range(0, (end - start).days, STEP_DAYS))
    store_dir = tmp_path / "store"
    segments_before = _segments()

    def sweep(*, profile=False, pickled=False, **kwargs):
        metrics = MetricsRegistry()
        if profile:
            metrics.enable_memory_profile()
        # Every timed sweep starts from the same collected heap: the
        # warm sweeps are fan-in bound, and cyclic-GC passes over
        # earlier sweeps' garbage would otherwise bill them.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with monkeypatch.context() as patch:
                if pickled:
                    patch.setattr(
                        runner, "_create_worker_segment",
                        lambda size, prefix: None,
                    )
                result = run_inference(
                    factory, start, end, InferenceConfig.extended(),
                    as2org=as2org, step_days=STEP_DAYS, jobs=2,
                    metrics=metrics, **kwargs,
                )
        finally:
            metrics.disable_memory_profile()
        return result, time.perf_counter() - t0, metrics

    def drop_results():
        shutil.rmtree(store_dir / "results")

    timings = {}

    # The baseline: shared-memory fan-in, whole days.
    baseline, timings["shm_columnar"], shm_metrics = sweep()
    expected = _daily_bytes(baseline, tmp_path / "baseline.jsonl")
    del baseline
    assert shm_metrics.gauge("fanin.shm_kb") > 0
    assert shm_metrics.gauge("fanin.pickled_kb") == 0

    # Byte-identity across the two transports.
    result, timings["pickle_columnar"], pickle_metrics = sweep(
        pickled=True
    )
    assert _daily_bytes(
        result, tmp_path / "pickle_columnar.jsonl"
    ) == expected
    del result
    assert pickle_metrics.gauge("fanin.pickled_kb") > 0
    assert pickle_metrics.gauge("fanin.shm_kb") == 0

    # Warm-store perf: one cold sweep writes input *and* result
    # shards; with results/ removed the warm sweep re-runs the kernel
    # off warm input shards, while with them in place it serves
    # mapped result shards and never computes a day.
    _, timings["cold_store"], cold_metrics = sweep(store_dir=store_dir)
    assert cold_metrics.counter("store.result_writes") == days

    inputs_s, results_s = [], []
    for _ in range(ROUNDS):
        drop_results()
        warm_inputs, elapsed, wi_metrics = sweep(store_dir=store_dir)
        inputs_s.append(elapsed)
        assert _daily_bytes(
            warm_inputs, tmp_path / "warm-inputs.jsonl"
        ) == expected
        assert wi_metrics.counter("store.hits") == days
        assert warm_inputs.runner_stats.days_computed == days
        del warm_inputs

        warm_results, elapsed, wr_metrics = sweep(store_dir=store_dir)
        results_s.append(elapsed)
        assert _daily_bytes(
            warm_results, tmp_path / "warm-results.jsonl"
        ) == expected
        assert wr_metrics.counter("store.result_hits") == days
        assert warm_results.runner_stats.days_computed == 0
        del warm_results
    timings["warm_store_inputs"] = min(inputs_s)
    timings["warm_store_results"] = min(results_s)

    speedup = (
        timings["warm_store_inputs"] / timings["warm_store_results"]
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm result-shard sweep only {speedup:.2f}x over the warm "
        f"input-shard sweep (floor {SPEEDUP_FLOOR}x)"
    )

    # Parent heap peaks of a computing sweep under each transport,
    # profiled runs (kept out of the timed pairs — tracemalloc skews
    # wall-clock).
    _, _, pp_metrics = sweep(pickled=True, profile=True)
    _, _, sp_metrics = sweep(profile=True)
    pickle_peak, pickle_peaks = _max_peak_kb(pp_metrics)
    shm_peak, shm_peaks = _max_peak_kb(sp_metrics)
    assert shm_peak < pickle_peak, (
        f"shared-memory parent peak {shm_peak} kB not below the "
        f"pickled fallback's {pickle_peak} kB"
    )

    # Every exit path above unlinked its segments.
    assert _segments() == segments_before

    record_bench_json("fanin", {
        "scenario": "internet",
        "window_days": (end - start).days,
        "step_days": STEP_DAYS,
        "sampled_days": days,
        "jobs": 2,
        "byte_identity": [
            "pickle_columnar", "warm_store_inputs", "warm_store_results",
        ],
        "rounds": ROUNDS,
        "timings_s": {
            key: round(value, 3) for key, value in timings.items()
        },
        "warm_speedup_results_vs_inputs": round(speedup, 2),
        "transport": {
            "shm_kb": shm_metrics.gauge("fanin.shm_kb"),
            "pickled_kb_under_shm": shm_metrics.gauge(
                "fanin.pickled_kb"
            ),
            "pickled_kb_fallback": pickle_metrics.gauge(
                "fanin.pickled_kb"
            ),
            "result_shard_writes": cold_metrics.counter(
                "store.result_writes"
            ),
            "result_shard_hits": wr_metrics.counter(
                "store.result_hits"
            ),
        },
        "parent_peak_kb": {
            "pickle": pickle_peak,
            "shm": shm_peak,
            "pickle_stages": pickle_peaks,
            "shm_stages": shm_peaks,
        },
    })
