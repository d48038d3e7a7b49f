"""Out-of-core smoke benchmark: the shard store and fan-in at internet scale.

Runs a multi-year sweep (the internet preset's full 2018–2020 window,
subsampled with ``step_days`` to bound wall-clock) in RAM through both
result transports — the shared-memory fan-in and the pickled fallback
a worker takes when it cannot get a segment (forced here by patching
``runner._create_worker_segment`` before the pool forks) — then
against a cold shard store, the warm store, and the warm store with
its result shards removed, all with per-stage memory profiling on,
and asserts

- every sweep produces byte-identical daily delegations,
- each transport carried every result (``fanin.shm_kb`` /
  ``fanin.pickled_kb``), and no fan-in buffer outlives its chunk: when
  rule (v) starts, the parent maps no fan-in segment, every
  parent-side segment close has succeeded, and the pickled sweep's
  traced heap exceeds the shared-memory sweep's by less than half of
  what it pickled (the cold store sweep runs first, so neither pays
  the first run's one-off allocations),
- the warm store serves every day from its result shard (neither the
  stream nor the kernel runs),
- per-day memory is *flat*: on sweeps that compute days off warm
  input shards, every per-day stage (``profile.runner.compute.day*``)
  peaks no higher over the full window than over a third of it, and
  no higher than the in-RAM sweep's per-day stages (mapped pages are
  the kernel's problem, not the process heap's),
- no shared-memory segment outlives the sweeps.

Only per-day stages are compared for flatness: the parent's fan-in
and rule (v) hold the whole window's result by design, so their peaks
grow with the number of days however flat each day is.

Wall-clocks are not asserted here: CI records the warm store sweep's
manifest into the run history, whose ``history check`` tracks them.
"""

import datetime
import pathlib
import shutil

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.delegation import runner
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, internet_scenario
from tests.delegation.fanin_probe import FanInProbe

#: Sample the 882-day window every N days: multi-year coverage at
#: smoke-test cost (10 sampled days).
STEP_DAYS = 90

#: Per-day flatness bar: a per-day stage's peak over the full window
#: may exceed its peak over a third of the window by at most this
#: factor.  Each day's maps and scratch are released before the next
#: day starts, so per-day peaks must not scale with the window.
FLATNESS_SLACK = 1.5

#: The per-day stages: worker-side spans, one per computed day.
PER_DAY_PREFIX = "profile.runner.compute.day"

SHM_DIR = pathlib.Path("/dev/shm")


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def _segments():
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("rpfi*")}


def _profile_peaks(metrics):
    return {
        name: value
        for name, value in metrics.gauges().items()
        if name.startswith("profile.") and name.endswith(".peak_kb")
    }


def _per_day_peaks(metrics):
    return {
        name: value
        for name, value in _profile_peaks(metrics).items()
        if name.startswith(PER_DAY_PREFIX)
    }


def test_outofcore_internet_sweep(tmp_path, monkeypatch):
    scenario = internet_scenario()
    factory = WorldStreamFactory(scenario)
    as2org = World(scenario).as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    days = len(range(0, (end - start).days, STEP_DAYS))
    store_dir = tmp_path / "store"
    segments_before = _segments()

    # What the parent still holds when rule (v) starts, per sweep, and
    # every parent-side segment close.
    probe = FanInProbe(monkeypatch)

    def sweep(*, store=False, until=None, pickled=False):
        metrics = MetricsRegistry()
        metrics.enable_memory_profile()
        try:
            with monkeypatch.context() as patch:
                if pickled:
                    patch.setattr(
                        runner, "_create_worker_segment",
                        lambda size, prefix: None,
                    )
                result = run_inference(
                    factory, start, until or end,
                    InferenceConfig.extended(),
                    as2org=as2org, step_days=STEP_DAYS, jobs=2,
                    store_dir=store_dir if store else None,
                    metrics=metrics,
                )
        finally:
            metrics.disable_memory_profile()
        return result, metrics

    def input_shard_sweep(until=None):
        # Without result shards a warm store re-runs the kernel on
        # every day, off mapped input shards.
        shutil.rmtree(store_dir / "results")
        return sweep(store=True, until=until)

    cold, cold_metrics = sweep(store=True)
    in_ram, in_ram_metrics = sweep()
    in_ram_at_rule_v = probe.at_rule_v
    pickled, pickled_metrics = sweep(pickled=True)
    pickled_at_rule_v = probe.at_rule_v
    warm, warm_metrics = sweep(store=True)
    inputs, inputs_metrics = input_shard_sweep()

    # Byte-identical through every data plane and both transports.
    expected = _daily_bytes(in_ram, tmp_path / "in_ram.jsonl")
    assert _daily_bytes(pickled, tmp_path / "pickled.jsonl") == expected
    assert _daily_bytes(cold, tmp_path / "cold.jsonl") == expected
    assert _daily_bytes(warm, tmp_path / "warm.jsonl") == expected
    assert _daily_bytes(inputs, tmp_path / "inputs.jsonl") == expected

    # Each transport carried every result back, and no fan-in buffer
    # outlived its chunk: nothing mapped or held at rule (v), and no
    # segment close failed.
    assert in_ram_metrics.gauge("fanin.shm_kb") > 0
    assert in_ram_metrics.gauge("fanin.pickled_kb") == 0
    assert pickled_metrics.gauge("fanin.pickled_kb") > 0
    assert pickled_metrics.gauge("fanin.shm_kb") == 0
    assert in_ram_at_rule_v["maps"] == []
    assert pickled_at_rule_v["maps"] == []
    assert "ok" in probe.closes
    assert probe.failed_closes() == []
    pickled_kb = pickled_metrics.gauge("fanin.pickled_kb")
    extra_kb = pickled_at_rule_v["heap_kb"] - in_ram_at_rule_v["heap_kb"]
    assert extra_kb < pickled_kb / 2, (
        f"the pickled sweep holds {extra_kb:.0f} kB more heap at rule "
        f"(v) than the shared-memory sweep ({pickled_kb} kB pickled)"
    )

    # The warm store served every day's result shard: no stream build
    # and no kernel run.
    assert cold_metrics.counter("store.writes") == days
    assert cold_metrics.counter("store.result_writes") == days
    assert warm_metrics.counter("store.result_hits") == days
    assert warm.runner_stats.days_computed == 0
    assert warm_metrics.counter("store.misses") == 0
    assert warm_metrics.counter("store.malformed") == 0
    # The input-shard sweep computed every day off mapped inputs.
    assert inputs.runner_stats.days_computed == days
    assert inputs_metrics.counter("store.hits") == days

    # Flatness, per day: the same per-day stages over a third of the
    # window peak within FLATNESS_SLACK of the full window, and
    # mmap-fed days never out-peak the in-RAM stream build.
    partial_end = start + datetime.timedelta(days=(days // 3) * STEP_DAYS)
    _, partial_metrics = input_shard_sweep(until=partial_end)
    full_days = _per_day_peaks(inputs_metrics)
    partial_days = _per_day_peaks(partial_metrics)
    in_ram_days = _per_day_peaks(in_ram_metrics)
    assert full_days and set(full_days) == set(partial_days)
    for name, peak in full_days.items():
        assert peak <= partial_days[name] * FLATNESS_SLACK, (
            f"{name}: {peak:.0f} kB over {days} days vs "
            f"{partial_days[name]:.0f} kB over {days // 3}"
        )
    assert max(full_days.values()) <= max(in_ram_days.values())

    # Every exit path above unlinked its segments.
    assert _segments() == segments_before
