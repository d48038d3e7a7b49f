"""Invariants of gap filling (extension (v)) on real inference output.

The pipeline runs without rule (v) at ``small`` scale for a few seeds,
on the daily grid and sampled every third day; :func:`fill_gaps` then
runs on that output.  It must equal the set-based oracle, be
idempotent, and fill a superset as M grows.
"""

import dataclasses

import pytest

from repro.delegation import (
    ConsistencyRule,
    InferenceConfig,
    WorldStreamFactory,
    fill_gaps,
    run_inference,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario
from tests.delegation import consistency_oracle as oracle

SEEDS = (3, 7, 42)
SPANS = (3, 10, 20)


@pytest.fixture(
    scope="module",
    params=[(seed, step) for seed in SEEDS for step in (1, 3)],
    ids=lambda param: f"seed{param[0]}-step{param[1]}",
)
def unfilled(request):
    seed, step_days = request.param
    config = small_scenario(seed)
    result = run_inference(
        WorldStreamFactory(config), config.bgp_start, config.bgp_end,
        dataclasses.replace(
            InferenceConfig.extended(), consistency_rule=None
        ),
        as2org=World(config).as2org(), step_days=step_days, jobs=1,
    )
    return result.daily, result.observation_dates


def _fill(daily, span, grid, fill=fill_gaps):
    metrics = MetricsRegistry()
    filled = fill(daily, ConsistencyRule(span, 0), grid, metrics=metrics)
    return filled, metrics.counters()


def _as_dict(daily):
    return {date: daily.on(date) for date in daily.dates()}


@pytest.mark.parametrize("span", SPANS)
def test_fill_equals_oracle(unfilled, span):
    daily, grid = unfilled
    filled, counters = _fill(daily, span, grid)
    expected, expected_counters = _fill(daily, span, grid, oracle.fill_gaps)
    assert _as_dict(filled) == _as_dict(expected)
    assert counters == expected_counters


@pytest.mark.parametrize("span", SPANS)
def test_fill_is_idempotent(unfilled, span):
    daily, grid = unfilled
    once, _ = _fill(daily, span, grid)
    twice, counters = _fill(once, span, grid)
    assert _as_dict(twice) == _as_dict(once)
    assert counters["pipeline.consistency.fills"] == 0


def test_fill_is_monotone_in_m(unfilled):
    daily, grid = unfilled
    previous = _as_dict(daily)
    for span in SPANS:
        filled, counters = _fill(daily, span, grid)
        current = _as_dict(filled)
        assert all(keys <= current[date] for date, keys in previous.items())
        previous = current
    assert counters["pipeline.consistency.fills"] > 0
