"""CI smoke benchmark: the kernel differential at reduced scale.

Runs the full small-scenario BGP window (two months) through the
columnar kernel, sequentially and through the parallel runner, and
through the trie reference kernel kept in
``tests/delegation/reference_kernel.py``, and asserts the columnar
fast path is byte-identical to the reference — outputs and attrition
counters alike.  Wall-clocks land in
``BENCH_smoke_kernel.json`` so CI can archive the trend without
paying the paper-scale fig6 run.

Scale note: small-scenario days are far too cheap for the 3x kernel
speedup floor to be meaningful (fixed per-day overhead dominates), so
this smoke run asserts correctness only and merely *records* the
ratio; the floor is enforced by ``bench_fig6_delegations``.
"""

import random
import time

from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.netbase.lpm import SortedPrefixMap, pack
from repro.netbase.prefix import IPv4Prefix
from repro.simulation import World, small_scenario
from tests.delegation.reference_kernel import ReferenceInference


def _lpm_fixture(entries, queries, seed=40):
    """A dense synthetic map plus a mixed-length query batch."""
    rng = random.Random(seed)
    seen = {}
    while len(seen) < entries:
        length = rng.randint(8, 28)
        network = rng.randrange(1 << 32) & ~((1 << (32 - length)) - 1)
        seen[pack(network, length)] = len(seen)
    spm = SortedPrefixMap(
        (IPv4Prefix(key >> 6, key & 0x3F), value)
        for key, value in seen.items()
    )
    batch = []
    for _ in range(queries):
        length = rng.randint(0, 32)
        network = rng.randrange(1 << 32) & ~((1 << (32 - length)) - 1)
        batch.append(IPv4Prefix(network, length))
    return spm, batch


def _longest_match_linear(spm, prefix):
    """Reference lookup scanning every stored length.

    The pre-bisect implementation: walk all distinct lengths and skip
    the too-long ones one comparison at a time.  Kept inline here (via
    the map's private columns) purely as the "before" side of the
    recorded speedup.
    """
    network = prefix.network
    length = prefix.length
    for candidate in reversed(spm._lengths):
        if candidate > length:
            continue
        masked = network & ~((1 << (32 - candidate)) - 1)
        index = spm._find((masked << 6) | candidate)
        if index >= 0:
            return IPv4Prefix(masked, candidate), spm._values[index]
    return None


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


def test_smoke_kernel_differential(record_bench_json, tmp_path):
    scenario = small_scenario()
    world = World(scenario)
    as2org = world.as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    timings = {}

    sequential = {}
    for kernel, inference in [
        ("object", ReferenceInference(InferenceConfig.extended(), as2org)),
        ("columnar", DelegationInference(InferenceConfig.extended(), as2org)),
    ]:
        t0 = time.perf_counter()
        sequential[kernel] = inference.infer_range(
            world.stream(), start, end
        )
        timings[f"sequential_{kernel}"] = time.perf_counter() - t0

    # Byte-identical sequential outputs, counters in exact agreement.
    object_bytes = _daily_bytes(
        sequential["object"], tmp_path / "object.jsonl"
    )
    assert _daily_bytes(
        sequential["columnar"], tmp_path / "columnar.jsonl"
    ) == object_bytes
    assert _counters(sequential["columnar"]) == \
        _counters(sequential["object"])

    # Same through the parallel runner.
    factory = WorldStreamFactory(scenario)
    t0 = time.perf_counter()
    parallel = run_inference(
        factory, start, end, InferenceConfig.extended(),
        as2org=as2org, jobs=2,
    )
    timings["runner_jobs2_columnar"] = time.perf_counter() - t0
    assert _daily_bytes(
        parallel, tmp_path / "runner-columnar.jsonl"
    ) == object_bytes
    assert _counters(parallel) == _counters(sequential["object"])

    # LPM lookup micro-timing: the bisect-bounded candidate-length
    # walk against the old scan-every-length reference, same queries.
    spm, queries = _lpm_fixture(entries=20_000, queries=30_000)
    t0 = time.perf_counter()
    bisect_hits = [spm.longest_match(q) for q in queries]
    timings["lpm_longest_match_bisect"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    linear_hits = [_longest_match_linear(spm, q) for q in queries]
    timings["lpm_longest_match_linear"] = time.perf_counter() - t0
    assert bisect_hits == linear_hits

    record_bench_json("smoke_kernel", {
        "benchmark": "smoke_kernel_differential",
        "scenario": "small",
        "days": (end - start).days,
        "kernel_differential": "byte-identical",
        "counters": _counters(sequential["columnar"]),
        "timings_seconds": {
            key: round(value, 4) for key, value in timings.items()
        },
        "speedups": {
            "columnar_vs_object_sequential": round(
                timings["sequential_object"]
                / timings["sequential_columnar"], 2
            ),
            "lpm_bisect_vs_linear_scan": round(
                timings["lpm_longest_match_linear"]
                / timings["lpm_longest_match_bisect"], 2
            ),
        },
    })
