"""Fan-in smoke benchmark: shared-memory results at internet scale.

Runs the internet preset's multi-year window (subsampled with
``step_days``) through every result-transport combination — pickled
fan-in on both kernels, shared-memory fan-in, per-/8 day shards, and
the incremental delta sweep under both transports — and asserts all
of them byte-identical to the PR 8 pickled baseline.

The perf claim is measured on the warm store: the pickled path serves
warm *input* shards but still re-runs the kernel every day, while the
shared-memory path serves warm *result* shards off mmap and never
touches the kernel.  The warm shm sweep must beat the warm pickled
sweep by ``SPEEDUP_FLOOR`` wall-clock, and its parent-process heap
peak (tracemalloc, parent only — segment views are mapped, not
allocated) must come in strictly below the pickled run's.

Timings, transport gauges, and parent heap peaks land in
``BENCH_fanin.json``; a final ``/dev/shm`` sweep asserts the run
leaked no segments.
"""

import pathlib
import time

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, internet_scenario

#: Sample the 882-day window every N days (10 sampled days).
STEP_DAYS = 90

#: Warm shm (result shards, kernel skipped) vs warm pickle (input
#: shards, kernel re-run) wall-clock floor.
SPEEDUP_FLOOR = 1.3

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


def test_fanin_internet_sweep(record_bench_json, tmp_path):
    scenario = internet_scenario()
    factory = WorldStreamFactory(scenario)
    as2org = World(scenario).as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    days = len(range(0, (end - start).days, STEP_DAYS))
    store_dir = tmp_path / "store"
    segments_before = _segments()

    def sweep(*, profile=False, **kwargs):
        metrics = MetricsRegistry()
        if profile:
            metrics.enable_memory_profile()
        t0 = time.perf_counter()
        try:
            result = run_inference(
                factory, start, end, InferenceConfig.extended(),
                as2org=as2org, step_days=STEP_DAYS, jobs=2,
                metrics=metrics, **kwargs,
            )
        finally:
            metrics.disable_memory_profile()
        return result, time.perf_counter() - t0, metrics

    timings = {}

    # The PR 8 baseline: pickled fan-in, whole days, columnar kernel.
    baseline, timings["pickle_columnar"], _ = sweep(fanin="pickle")
    expected = _daily_bytes(baseline, tmp_path / "baseline.jsonl")

    # Byte-identity across the whole transport/scheduling matrix.
    matrix = {
        "pickle_object": dict(fanin="pickle", kernel="object"),
        "shm_columnar": dict(fanin="shm"),
        "shm_day_shards4": dict(fanin="shm", day_shards=4),
        "incremental_pickle": dict(fanin="pickle", incremental=True),
        "incremental_shm": dict(fanin="shm", incremental=True),
    }
    shm_metrics = None
    for label, kwargs in matrix.items():
        result, timings[label], metrics = sweep(**kwargs)
        assert _daily_bytes(
            result, tmp_path / f"{label}.jsonl"
        ) == expected, label
        if label == "shm_columnar":
            shm_metrics = metrics
    assert shm_metrics.gauge("fanin.shm_kb") > 0
    assert shm_metrics.gauge("fanin.pickled_kb") == 0

    # Warm-store perf: one cold shm sweep writes input *and* result
    # shards; the warm pickled sweep then re-runs the kernel off warm
    # input shards while the warm shm sweep serves mapped result
    # shards and never computes a day.
    _, timings["cold_store_shm"], cold_metrics = sweep(
        fanin="shm", store_dir=store_dir
    )
    assert cold_metrics.counter("store.result_writes") == days

    warm_pickle, timings["warm_store_pickle"], wp_metrics = sweep(
        fanin="pickle", store_dir=store_dir
    )
    assert _daily_bytes(
        warm_pickle, tmp_path / "warm-pickle.jsonl"
    ) == expected
    assert wp_metrics.counter("store.hits") == days

    warm_shm, timings["warm_store_shm"], ws_metrics = sweep(
        fanin="shm", store_dir=store_dir
    )
    assert _daily_bytes(
        warm_shm, tmp_path / "warm-shm.jsonl"
    ) == expected
    assert ws_metrics.counter("store.result_hits") == days

    speedup = timings["warm_store_pickle"] / timings["warm_store_shm"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm shm sweep only {speedup:.2f}x over warm pickle "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    # Parent heap peaks, profiled runs (kept out of the timed pair —
    # tracemalloc skews wall-clock).
    _, _, pp_metrics = sweep(
        fanin="pickle", store_dir=store_dir, profile=True
    )
    _, _, sp_metrics = sweep(
        fanin="shm", store_dir=store_dir, profile=True
    )
    pickle_peak, pickle_peaks = _max_peak_kb(pp_metrics)
    shm_peak, shm_peaks = _max_peak_kb(sp_metrics)
    assert shm_peak < pickle_peak, (
        f"warm shm parent peak {shm_peak} kB not below "
        f"warm pickle's {pickle_peak} kB"
    )

    # Every exit path above unlinked its segments.
    assert _segments() == segments_before

    record_bench_json("fanin", {
        "scenario": "internet",
        "window_days": (end - start).days,
        "step_days": STEP_DAYS,
        "sampled_days": days,
        "jobs": 2,
        "byte_identity": sorted(matrix) + ["warm_store_pickle",
                                           "warm_store_shm"],
        "timings_s": {
            key: round(value, 3) for key, value in timings.items()
        },
        "warm_speedup_shm_vs_pickle": round(speedup, 2),
        "transport": {
            "shm_kb": shm_metrics.gauge("fanin.shm_kb"),
            "pickled_kb_under_shm": shm_metrics.gauge(
                "fanin.pickled_kb"
            ),
            "result_shard_writes": cold_metrics.counter(
                "store.result_writes"
            ),
            "result_shard_hits": ws_metrics.counter(
                "store.result_hits"
            ),
        },
        "parent_peak_kb": {
            "warm_pickle": pickle_peak,
            "warm_shm": shm_peak,
            "warm_pickle_stages": pickle_peaks,
            "warm_shm_stages": shm_peaks,
        },
    })
