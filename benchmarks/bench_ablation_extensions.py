"""Ablation A1: contribution of each inference extension.

Runs the pipeline with each extension toggled independently over a
sub-window and quantifies what it removes: the same-organization
filter cuts the delegation count; the consistency rule cuts the daily
variance.  (DESIGN.md §6, design-choice 3.)

The four configurations share one shard store: the pairs differing
only in the consistency rule (v) — which runs after the fan-in — hit
the same per-day result shards, so the sweep computes each (same-org,
day) combination exactly once.
"""

import datetime
import statistics

from repro.analysis.report import render_table
from repro.delegation import (
    ConsistencyRule,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
)

#: A shorter window keeps four full pipeline runs affordable, but long
#: enough that unfillable edge-of-window gaps do not dominate the
#: roughness comparison.
WINDOW_DAYS = 200


def _run(world, config, store_dir):
    start = world.config.bgp_start
    end = start + datetime.timedelta(days=WINDOW_DAYS)
    as2org = world.as2org() if config.same_org_filter else None
    result = run_inference(
        WorldStreamFactory(world.config), start, end, config,
        as2org=as2org, jobs=1, store_dir=store_dir,
    )
    counts = [c for _d, c in result.counts_series()]
    deltas = [abs(b - a) for a, b in zip(counts, counts[1:])]
    # Roughness (mean day-over-day jump / level): isolates the on-off
    # jitter from slow growth, like the Fig. 6 benchmark.
    roughness = (sum(deltas) / len(deltas)) / statistics.mean(counts)
    return statistics.mean(counts), roughness, result.runner_stats


def test_ablation_extensions(benchmark, world, record_result, tmp_path):
    store_dir = tmp_path / "store"
    configs = {
        "baseline (i-iii)": InferenceConfig.baseline(),
        "+ same-org (iv)": InferenceConfig(consistency_rule=None),
        "+ consistency (v)": InferenceConfig(
            same_org_filter=False,
            consistency_rule=ConsistencyRule(10, 0),
        ),
        "extended (iv+v)": InferenceConfig.extended(),
    }

    def run_all():
        return {
            name: _run(world, cfg, store_dir)
            for name, cfg in configs.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    base_mean, base_rough, base_stats = results["baseline (i-iii)"]
    orgf_mean, _orgf_rough, orgf_stats = results["+ same-org (iv)"]
    _cons_mean, cons_rough, cons_stats = results["+ consistency (v)"]
    ext_mean, ext_rough, ext_stats = results["extended (iv+v)"]

    # Config pairs differing only in rule (v) share per-day entries:
    # the later run of each pair must be served from the store entirely.
    assert base_stats.days_from_cache == 0   # first of the (iv)=off pair
    assert cons_stats.days_computed == 0     # reuses the baseline days
    assert orgf_stats.days_from_cache == 0   # first of the (iv)=on pair
    assert ext_stats.days_computed == 0      # reuses the same-org days

    # The same-org filter is what removes delegations ...
    assert orgf_mean < 0.85 * base_mean
    # ... and the consistency rule is what removes variance.
    assert cons_rough < base_rough / 2
    # Full extension stack combines both effects.  (The same-org filter
    # removes only *steady* intra-org delegations, which shrinks the
    # roughness denominator — hence the softer bound than for (v) alone.)
    assert ext_mean < 0.85 * base_mean and ext_rough < base_rough * 0.75

    rows = [
        [name, f"{mean:.1f}", f"{rough:.4f}"]
        for name, (mean, rough, _stats) in results.items()
    ]
    record_result(
        "ablation_extensions",
        render_table(
            ["configuration", "mean #delegations", "daily roughness"],
            rows,
            title="A1 — per-extension contribution "
                  f"(first {WINDOW_DAYS} days)",
        ),
    )
