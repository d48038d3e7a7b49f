"""Multi-day sweep benchmark: full vs. warm store vs. incremental.

The question the delta subsystem exists to answer: once a sweep has
run once, what is the cheapest way to run it again (and to extend it
by a few days)?  Four contenders over the full ≥30-day small-scenario
window:

- ``full_cold`` — the columnar kernel, every day from the stream,
- ``store_warm`` — the shard store with every day's result shard
  primed (the full sweep's fastest re-run path: one map + key hash
  per day, no kernel),
- ``incremental_cold`` — the delta sweep, journaled, from nothing,
- ``incremental_warm`` — a pure journal replay (parse + row fold per
  day; no stream, no classification, no cover pass).

All four must be byte-identical; the acceptance bar is
``incremental_warm`` strictly beating ``store_warm``.  Timings land
in ``BENCH_delta.json``.
"""

import time

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.simulation import World, small_scenario


def _counters(result):
    return {
        "pairs_seen": result.pairs_seen,
        "pairs_dropped_visibility": result.pairs_dropped_visibility,
        "pairs_dropped_origin": result.pairs_dropped_origin,
        "delegations_dropped_same_org":
            result.delegations_dropped_same_org,
        "bogon_prefix": result.sanitize_stats.bogon_prefix,
    }


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def test_bench_delta_sweep(record_bench_json, tmp_path):
    scenario = small_scenario()
    world = World(scenario)
    as2org = world.as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    days = (end - start).days
    assert days >= 30, "acceptance requires a >=30-day sweep"
    factory = WorldStreamFactory(scenario)
    config = InferenceConfig.extended()
    timings = {}

    def run(label, **kwargs):
        t0 = time.perf_counter()
        result = run_inference(
            factory, start, end, config, as2org=as2org, jobs=1,
            **kwargs,
        )
        timings[label] = time.perf_counter() - t0
        return result

    store_dir = tmp_path / "store"
    journal_dir = tmp_path / "journal"

    full_cold = run("full_cold")
    run("store_cold", store_dir=store_dir)
    store_warm = run("store_warm", store_dir=store_dir)
    incremental_cold = run(
        "incremental_cold", incremental=True, journal_dir=journal_dir
    )
    incremental_warm = run(
        "incremental_warm", incremental=True, journal_dir=journal_dir
    )

    # Byte-identity across every path, counters in exact agreement.
    reference = _daily_bytes(full_cold, tmp_path / "full.jsonl")
    for label, result in [
        ("store_warm", store_warm),
        ("incremental_cold", incremental_cold),
        ("incremental_warm", incremental_warm),
    ]:
        assert _daily_bytes(
            result, tmp_path / f"{label}.jsonl"
        ) == reference, label
        assert _counters(result) == _counters(full_cold), label
    assert store_warm.runner_stats.days_computed == 0
    assert incremental_warm.runner_stats.days_computed == 0
    assert incremental_warm.runner_stats.days_replayed == days

    # The acceptance bar: a warm journal replay beats the warm store
    # (it skips per-day maps, key hashing and payload decode in favour
    # of one sequential journal read).
    assert timings["incremental_warm"] < timings["store_warm"], (
        f"warm replay {timings['incremental_warm']:.4f}s not faster "
        f"than warm store {timings['store_warm']:.4f}s"
    )

    record_bench_json("delta", {
        "benchmark": "delta_sweep",
        "scenario": "small",
        "days": days,
        "byte_identical": True,
        "counters": _counters(full_cold),
        "delta_stats": {
            "days_replayed_warm":
                incremental_warm.runner_stats.days_replayed,
            "days_fastpathed_cold":
                incremental_cold.runner_stats.days_fastpathed,
            "journal": incremental_warm.runner_stats.journal,
        },
        "timings_seconds": {
            key: round(value, 4) for key, value in timings.items()
        },
        "speedups": {
            "incremental_warm_vs_store_warm": round(
                timings["store_warm"] / timings["incremental_warm"], 2
            ),
            "incremental_warm_vs_full_cold": round(
                timings["full_cold"] / timings["incremental_warm"], 2
            ),
            "incremental_cold_vs_full_cold": round(
                timings["full_cold"] / timings["incremental_cold"], 2
            ),
        },
    })
