"""Fig. 6: BGP delegations with and without the paper's extensions.

Asserted shapes (§4 + appendix): the extensions significantly reduce
the number of inferred delegations; they almost completely eliminate
the baseline's day-to-day variance; the extended algorithm yields a
~7 % increase in delegations over the window with a negligible change
in delegated addresses; the /20 share falls ~7 %→~3 % while the /24
share rises ~66 %→~72 %.

The extended series comes from the parallel runner, which must
reproduce the sequential pipeline byte for byte.  The kernel, store
and observability differentials live in the tests
(``tests/delegation/test_kernel_differential.py``,
``tests/store/test_store_differential.py``, ``TestObservabilityIsInert``);
wall-clocks live in e2ebench and the run history.
"""

import os
import statistics

from repro.analysis.report import render_comparison
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)


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


def test_fig6_delegations(benchmark, world, record_result, tmp_path):
    config = world.config
    as2org = world.as2org()
    factory = WorldStreamFactory(config)
    jobs = min(4, os.cpu_count() or 1)

    def run_all():
        sequential = DelegationInference(
            InferenceConfig.extended(), as2org
        ).infer_range(world.stream(), config.bgp_start, config.bgp_end)
        ext_result = run_inference(
            factory, config.bgp_start, config.bgp_end,
            InferenceConfig.extended(), as2org=as2org, jobs=jobs,
        )
        base_result = run_inference(
            factory, config.bgp_start, config.bgp_end,
            InferenceConfig.baseline(), jobs=jobs,
        )
        return sequential, ext_result, base_result

    sequential, ext_result, base_result = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    # The runner must reproduce the sequential pipeline byte for byte.
    assert _daily_bytes(ext_result, tmp_path / "par.jsonl") == \
        _daily_bytes(sequential, tmp_path / "seq.jsonl")

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
                [f"runner, jobs={jobs}", "(same pipeline)",
                 "byte-identical to sequential"],
            ],
        ),
    )
