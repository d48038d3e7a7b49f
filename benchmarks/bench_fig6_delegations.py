"""Fig. 6: BGP delegations with and without the paper's extensions.

Asserted shapes (§4 + appendix): the extensions significantly reduce
the number of inferred delegations; they almost completely eliminate
the baseline's day-to-day variance; the extended algorithm yields a
~7 % increase in delegations over the window with a negligible change
in delegated addresses; the /20 share falls ~7 %→~3 % while the /24
share rises ~66 %→~72 %.

The run also exercises the columnar kernel against the trie reference
kernel kept in ``tests/delegation/reference_kernel.py`` (byte-identical
output, >=3x sequential speedup) and the parallel, store-backed runner
end to end: sequential vs. fanned-out wall-clock, byte-identical
output, a warm re-run served from the store's result shards that must
clearly beat the cold one, and an instrumented warm re-run whose
absolute overhead must stay negligible next to the cold compute cost.
"""

import os
import statistics
import time

from repro.analysis.report import render_comparison
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.obs import MetricsRegistry, TracingRegistry, load_trace
from tests.delegation.reference_kernel import ReferenceInference


def _series_stats(result):
    """(counts, roughness): mean day-over-day jump relative to level.

    Roughness isolates the on-off jitter Fig. 6 shows from the slow
    +7 % growth trend (which would dominate a plain CV).
    """
    counts = [c for _d, c in result.counts_series()]
    deltas = [abs(b - a) for a, b in zip(counts, counts[1:])]
    roughness = (sum(deltas) / len(deltas)) / statistics.mean(counts)
    return counts, roughness


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def test_fig6_delegations(
    benchmark, world, record_result, record_bench_json, tmp_path
):
    config = world.config
    as2org = world.as2org()
    factory = WorldStreamFactory(config)
    store_dir = tmp_path / "store"
    jobs = min(4, os.cpu_count() or 1)
    timings = {}

    def run_all():
        # The trie reference kernel is the "before" of the columnar
        # fast path — timed first, on a cold interpreter.
        t0 = time.perf_counter()
        reference = ReferenceInference(
            InferenceConfig.extended(), as2org
        ).infer_range(world.stream(), config.bgp_start, config.bgp_end)
        timings["sequential_object"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        sequential = DelegationInference(
            InferenceConfig.extended(), as2org
        ).infer_range(world.stream(), config.bgp_start, config.bgp_end)
        timings["sequential"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ext_result = run_inference(
            factory, config.bgp_start, config.bgp_end,
            InferenceConfig.extended(), as2org=as2org,
            jobs=jobs, store_dir=store_dir,
        )
        timings["parallel_cold"] = time.perf_counter() - t0

        def warm_run(metrics_registry=None):
            kwargs = {}
            if metrics_registry is not None:
                kwargs["metrics"] = metrics_registry
            t0 = time.perf_counter()
            result = run_inference(
                factory, config.bgp_start, config.bgp_end,
                InferenceConfig.extended(), as2org=as2org,
                jobs=jobs, store_dir=store_dir, **kwargs,
            )
            return result, time.perf_counter() - t0

        warm, timings["warm_cache"] = warm_run()
        # Instrumentation overhead on the warm-store path, best of 3
        # each so a single scheduler hiccup cannot decide the verdict.
        plain_times, metered_times = [], []
        for _ in range(3):
            _result, elapsed = warm_run()
            plain_times.append(elapsed)
            registry = MetricsRegistry()
            instrumented, elapsed = warm_run(registry)
            metered_times.append(elapsed)
        timings["warm_plain"] = min(plain_times)
        timings["warm_metered"] = min(metered_times)
        assert registry.counter("runner.cache.hits") == \
            registry.counter("runner.days_total")

        # Full tracing on the warm path: every span lands on the
        # timeline and the workers' lanes fan back into the parent.
        tracing = TracingRegistry(lane="main")
        traced, timings["warm_traced"] = warm_run(tracing)
        timings["trace_events"] = len(tracing.trace)
        tracing.trace.write(tmp_path / "warm.trace.json")

        base_result = run_inference(
            factory, config.bgp_start, config.bgp_end,
            InferenceConfig.baseline(), jobs=jobs, store_dir=store_dir,
        )
        return (reference, sequential, ext_result, warm, instrumented,
                traced, base_result)

    (reference, sequential, ext_result, warm, instrumented, traced,
     base_result) = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The columnar kernel is a pure perf change: byte-identical to the
    # trie reference, with every attrition counter in agreement ...
    seq_bytes = _daily_bytes(sequential, tmp_path / "seq.jsonl")
    assert _daily_bytes(reference, tmp_path / "ref.jsonl") == seq_bytes
    assert (
        sequential.pairs_seen,
        sequential.pairs_dropped_visibility,
        sequential.pairs_dropped_origin,
        sequential.delegations_dropped_same_org,
        sequential.sanitize_stats.bogon_prefix,
    ) == (
        reference.pairs_seen,
        reference.pairs_dropped_visibility,
        reference.pairs_dropped_origin,
        reference.delegations_dropped_same_org,
        reference.sanitize_stats.bogon_prefix,
    )
    # ... and at least 3x faster on the cold sequential path.
    kernel_speedup = timings["sequential_object"] / timings["sequential"]
    assert kernel_speedup >= 3.0, \
        f"columnar kernel speedup only {kernel_speedup:.1f}x"

    # The runner must reproduce the sequential pipeline byte for byte.
    assert _daily_bytes(ext_result, tmp_path / "par.jsonl") == seq_bytes
    assert _daily_bytes(warm, tmp_path / "warm.jsonl") == seq_bytes
    # Instrumented runs produce the identical result ...
    assert _daily_bytes(instrumented, tmp_path / "obs.jsonl") == seq_bytes
    # ... at negligible absolute overhead.  (Measured against the
    # cold compute cost: mapped result shards shrank the warm path so
    # far that the registry's fixed per-day cost — unchanged in
    # seconds — is no longer a meaningful *fraction* of it.)
    overhead = timings["warm_metered"] - timings["warm_plain"]
    assert overhead < 0.05 * timings["parallel_cold"], \
        f"instrumentation overhead {overhead:.3f}s on a " \
        f"{timings['parallel_cold']:.2f}s cold run"
    # Tracing, too, is inert — and the Chrome export round-trips.
    assert _daily_bytes(traced, tmp_path / "traced.jsonl") == seq_bytes
    assert timings["trace_events"] > 0
    exported = load_trace(tmp_path / "warm.trace.json")
    assert len([
        e for e in exported["traceEvents"] if e.get("ph") == "X"
    ]) == timings["trace_events"]

    # The second run is a pure result-shard read ...
    assert warm.runner_stats.days_computed == 0
    assert warm.runner_stats.cache_hit_rate == 1.0
    # ... and clearly faster than computing from scratch.  (The old
    # 10x floor predates the columnar kernel — cold compute shrank
    # ~4x, so the warm path's headroom over it is structurally
    # smaller.)
    assert timings["warm_cache"] * 2 <= timings["parallel_cold"]
    if (os.cpu_count() or 1) >= 4:
        # With real cores available the fan-out must at least halve the
        # wall-clock (skipped on smaller machines where forking four
        # workers onto one core can only add overhead).
        assert timings["parallel_cold"] * 2 <= timings["sequential"]

    ext_counts, ext_rough = _series_stats(ext_result)
    base_counts, base_rough = _series_stats(base_result)

    # Extensions significantly reduce the delegation count ...
    assert statistics.mean(ext_counts) < 0.85 * statistics.mean(base_counts)
    # ... and collapse the daily variance.
    assert ext_rough < base_rough / 2

    growth = ext_counts[-1] / ext_counts[0]
    assert 1.04 <= growth <= 1.10          # "+~7 %"

    addresses = [a for _d, a in ext_result.addresses_series()]
    address_change = addresses[-1] / addresses[0]
    assert 0.90 <= address_change <= 1.10  # "negligible change"

    first_day = ext_result.observation_dates[0]
    last_day = ext_result.observation_dates[-1]
    dist_first = ext_result.daily.length_distribution(first_day)
    dist_last = ext_result.daily.length_distribution(last_day)
    assert 0.62 <= dist_first.get(24, 0.0) <= 0.70   # ~66 %
    assert 0.68 <= dist_last.get(24, 0.0) <= 0.76    # ~72 %
    assert 0.05 <= dist_first.get(20, 0.0) <= 0.09   # ~7 %
    assert 0.01 <= dist_last.get(20, 0.0) <= 0.05    # ~3 %

    record_result(
        "fig6_delegations",
        render_comparison(
            "Fig. 6 — BGP delegations w/wo extensions (2018-01..2020-06)",
            [
                ["extended vs baseline count", "significantly fewer",
                 f"{statistics.mean(ext_counts):.0f} vs "
                 f"{statistics.mean(base_counts):.0f}"],
                ["daily roughness", "almost eliminated",
                 f"{ext_rough:.4f} vs {base_rough:.4f}"],
                ["delegation growth", "+~7%", f"{(growth - 1):+.1%}"],
                ["delegated-address change", "negligible",
                 f"{(address_change - 1):+.1%}"],
                ["/24 share", "66% -> 72%",
                 f"{dist_first.get(24, 0):.1%} -> {dist_last.get(24, 0):.1%}"],
                ["/20 share", "7% -> 3%",
                 f"{dist_first.get(20, 0):.1%} -> {dist_last.get(20, 0):.1%}"],
                ["sequential, trie reference kernel", "(before)",
                 f"{timings['sequential_object']:.2f}s"],
                ["sequential, columnar kernel", ">=3x faster",
                 f"{timings['sequential']:.2f}s "
                 f"({kernel_speedup:.1f}x)"],
                [f"runner cold, jobs={jobs}", "(after)",
                 f"{timings['parallel_cold']:.2f}s"],
                ["runner warm store", ">=2x faster than cold",
                 f"{timings['warm_cache']:.2f}s "
                 f"({timings['parallel_cold'] / timings['warm_cache']:.0f}x)"],
                ["instrumentation overhead (warm)", "<5% of cold",
                 f"{(timings['warm_metered'] - timings['warm_plain']):.3f}s "
                 f"({timings['warm_plain']:.3f}s -> "
                 f"{timings['warm_metered']:.3f}s)"],
                ["traced warm run", "byte-identical output",
                 f"{timings['warm_traced']:.3f}s, "
                 f"{timings['trace_events']} trace events"],
            ],
        ),
    )
    record_bench_json("fig6", {
        "benchmark": "fig6_delegations",
        "jobs": jobs,
        "kernel_differential": "byte-identical",
        "timings_seconds": {
            key: round(value, 4)
            for key, value in timings.items()
            if key != "trace_events"
        },
        "speedups": {
            "columnar_vs_object_sequential":
                round(kernel_speedup, 2),
            "warm_cache_vs_cold": round(
                timings["parallel_cold"] / timings["warm_cache"], 2
            ),
        },
    })
