"""Ablation A2: the monitor visibility threshold.

Footnote 2 of the paper: "As long as the monitor threshold is chosen
between 10 % and 90 % the difference in inferred delegations is
negligible."  Sweeping the threshold on one comparison day must show a
flat plateau across 10–90 % (globally visible routes are seen by all
monitors; local noise by very few), with a drop only at 0 %.
"""

import datetime

from repro.analysis.report import render_table
from repro.delegation import DelegationInference, InferenceConfig

THRESHOLDS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
SAMPLE_DAYS = 14


def test_ablation_visibility_threshold(benchmark, world, record_result):
    as2org = world.as2org()
    stream = world.stream()
    total_monitors = stream.monitor_count()
    start = world.config.bgp_start
    dates = [
        start + datetime.timedelta(days=30 * i) for i in range(SAMPLE_DAYS)
    ]
    day_tables = {date: stream.pair_table_on(date) for date in dates}

    def sweep():
        results = {}
        for threshold in THRESHOLDS:
            config = InferenceConfig(
                visibility_threshold=threshold,
                consistency_rule=None,
            )
            inference = DelegationInference(config, as2org)
            counts = [
                len(inference.infer_day_from_table(
                    table, total_monitors, date
                ))
                for date, table in day_tables.items()
            ]
            results[threshold] = sum(counts) / len(counts)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    plateau = [results[t] for t in THRESHOLDS if t >= 0.1]
    # Negligible difference across 10..90 %.
    assert max(plateau) - min(plateau) <= 0.02 * max(plateau) + 1
    # Threshold 0 admits locally-visible noise (hijacks): not smaller.
    assert results[0.0] >= results[0.5]

    record_result(
        "ablation_threshold",
        render_table(
            ["visibility threshold", "mean #delegations"],
            [[f"{t:.0%}", f"{results[t]:.1f}"] for t in THRESHOLDS],
            title="A2 — monitor visibility threshold sweep "
                  "(paper footnote 2: flat from 10% to 90%)",
        ),
    )
