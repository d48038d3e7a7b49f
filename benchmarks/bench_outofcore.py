"""Out-of-core smoke benchmark: the shard store at internet scale.

Runs a multi-year sweep (the internet preset's full 2018–2020 window,
subsampled with ``step_days`` to bound wall-clock) three ways — in
RAM, against a cold shard store, and against the warm store — with
per-stage memory profiling on, and asserts

- all three sweeps produce byte-identical daily delegations,
- the warm store serves every day as a hit (the stream is never
  rebuilt),
- peak traced memory is *flat*: the warm mmap-fed sweep peaks no
  higher over the full window than over a third of it, and no higher
  than the in-RAM sweep (mapped pages are the kernel's problem, not
  the process heap's).

Wall-clocks, store counters, and every ``profile.*.peak_kb`` gauge
land in ``BENCH_outofcore.json`` so CI archives the memory floor
alongside the timing trend.
"""

import datetime
import time

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, internet_scenario

#: Sample the 882-day window every N days: multi-year coverage at
#: smoke-test cost (10 sampled days).
STEP_DAYS = 90

#: Warm-run flatness bar: the full-window peak may exceed the
#: third-of-window peak by at most this factor.  Per-day maps are
#: released as the sweep advances, so the peak must not scale with
#: the number of days.
FLATNESS_SLACK = 1.5


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def _profile_peaks(metrics):
    return {
        name: value
        for name, value in metrics.gauges().items()
        if name.startswith("profile.") and name.endswith(".peak_kb")
    }


def test_outofcore_internet_sweep(record_bench_json, tmp_path):
    scenario = internet_scenario()
    factory = WorldStreamFactory(scenario)
    as2org = World(scenario).as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    days = len(range(0, (end - start).days, STEP_DAYS))
    store_dir = tmp_path / "store"

    def sweep(label, *, store=False, until=None, jobs=2):
        metrics = MetricsRegistry()
        metrics.enable_memory_profile()
        t0 = time.perf_counter()
        try:
            result = run_inference(
                factory, start, until or end, InferenceConfig.extended(),
                as2org=as2org, step_days=STEP_DAYS, jobs=jobs,
                store_dir=store_dir if store else None, metrics=metrics,
            )
        finally:
            metrics.disable_memory_profile()
        elapsed = time.perf_counter() - t0
        return result, elapsed, metrics

    in_ram, in_ram_s, in_ram_metrics = sweep("in_ram")
    cold, cold_s, cold_metrics = sweep("cold_store", store=True)
    warm, warm_s, warm_metrics = sweep("warm_store", store=True)

    # Byte-identical through every data plane.
    expected = _daily_bytes(in_ram, tmp_path / "in_ram.jsonl")
    assert _daily_bytes(cold, tmp_path / "cold.jsonl") == expected
    assert _daily_bytes(warm, tmp_path / "warm.jsonl") == expected

    # The warm store served the whole window without a stream build.
    assert cold_metrics.counter("store.writes") == days
    assert warm_metrics.counter("store.hits") == days
    assert warm_metrics.counter("store.misses") == 0
    assert warm_metrics.counter("store.malformed") == 0

    # Flatness: a warm sweep over a third of the window peaks within
    # FLATNESS_SLACK of the full window (per-day maps are released),
    # and mmap-fed days never out-peak the in-RAM stream build.
    partial_end = start + datetime.timedelta(days=(days // 3) * STEP_DAYS)
    _, _, partial_metrics = sweep(
        "warm_partial", store=True, until=partial_end
    )
    warm_peak = max(_profile_peaks(warm_metrics).values())
    partial_peak = max(_profile_peaks(partial_metrics).values())
    in_ram_peak = max(_profile_peaks(in_ram_metrics).values())
    assert warm_peak <= partial_peak * FLATNESS_SLACK
    assert warm_peak <= in_ram_peak

    shards = sorted(store_dir.rglob("*.shard"))
    record_bench_json("outofcore", {
        "scenario": "internet",
        "window_days": (end - start).days,
        "step_days": STEP_DAYS,
        "sampled_days": days,
        "jobs": 2,
        "timings_s": {
            "in_ram": round(in_ram_s, 3),
            "cold_store": round(cold_s, 3),
            "warm_store": round(warm_s, 3),
        },
        "store": {
            "shards": len(shards),
            "bytes": sum(path.stat().st_size for path in shards),
            "cold_writes": cold_metrics.counter("store.writes"),
            "warm_hits": warm_metrics.counter("store.hits"),
            "warm_mapped_kb": warm_metrics.gauge("store.mapped_kb"),
        },
        "profile_peak_kb": {
            "in_ram": _profile_peaks(in_ram_metrics),
            "warm_store": _profile_peaks(warm_metrics),
            "warm_store_partial": _profile_peaks(partial_metrics),
        },
    })
