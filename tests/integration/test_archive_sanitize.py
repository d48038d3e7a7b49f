"""Collector-archive replays drop the routes §4 says to remove.

The paper removes "routes that contain ASes currently reserved by
IANA, and routes that contain a loop in their AS-PATH".  World streams
never carry such routes; archives can.  Here every route of one
delegated prefix on one archive day is rewritten to carry AS_TRANS
(23456) before the origin, or to loop back to the origin.  The prefix
must then be absent from that day in ``infer_range`` over the archive
and in ``run_inference`` over an :class:`ArchiveStreamFactory` at
``jobs=1`` and ``jobs=2``, and the stream counters must read the
number of rewritten routes.
"""

import datetime
import json

import pytest

from repro.bgp.stream import RouteStream
from repro.delegation import (
    ArchiveStreamFactory,
    DelegationInference,
    InferenceConfig,
    run_inference,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario

SCENARIO = small_scenario(42)
START = SCENARIO.bgp_start + datetime.timedelta(days=4)
DAY = START + datetime.timedelta(days=1)
END = START + datetime.timedelta(days=3)
CONFIG = InferenceConfig.baseline()


def _with_as_trans(path):
    return path[:-1] + ["23456", path[-1]]


def _with_loop(path):
    detour = "174" if path[-1] != "174" else "3356"
    return path + [detour, path[-1]]


REWRITES = {
    "stream.sanitize.reserved_asn": _with_as_trans,
    "stream.sanitize.as_path_loop": _with_loop,
}


class _SystemFactory:
    """Rebuild the world's collector system in any process."""

    def __call__(self):
        return World(SCENARIO).collector_system()


@pytest.fixture(scope="module")
def world():
    return World(SCENARIO)


@pytest.fixture(scope="module")
def delegated(world):
    """One prefix the in-memory stream finds delegated on ``DAY``."""
    stream = world.stream()
    found = DelegationInference(CONFIG).infer_day_from_table(
        stream.pair_table_on(DAY), stream.monitor_count(), DAY
    )
    return str(min(d.prefix for d in found))


def _write_archive(world, directory, prefix, rewrite):
    """Three archive days; on ``DAY`` every route of ``prefix`` is
    rewritten.  Returns how many routes were."""
    source = world.announcement_source()
    system = world.collector_system()
    date = START
    while date < END:
        system.write_day(source(date), date, directory)
        date += datetime.timedelta(days=1)
    rewritten = 0
    for path in sorted(directory.glob(f"*/{DAY.isoformat()}.jsonl")):
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["prefix"] == prefix:
                record["as_path"] = " ".join(
                    rewrite(record["as_path"].split())
                )
                rewritten += 1
            lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n")
    return rewritten


@pytest.mark.parametrize("counter", sorted(REWRITES))
def test_archive_drops_routes_the_paper_removes(
    world, delegated, tmp_path, counter
):
    archive = tmp_path / "archive"
    rewritten = _write_archive(
        world, archive, delegated, REWRITES[counter]
    )
    assert rewritten > 0
    memory = DelegationInference(CONFIG).infer_range(
        world.stream(), START, END
    )
    assert delegated in {str(p) for p in memory.daily.prefixes_on(DAY)}

    metrics = MetricsRegistry()
    stream = RouteStream(world.collector_system(), archive_dir=archive)
    stream.set_metrics(metrics)
    results = {
        "infer_range": DelegationInference(CONFIG).infer_range(
            stream, START, END
        ),
    }
    counters = {"infer_range": metrics.counters()}
    factory = ArchiveStreamFactory(str(archive), _SystemFactory())
    for jobs in (1, 2):
        metrics = MetricsRegistry()
        results[f"jobs={jobs}"] = run_inference(
            factory, START, END, CONFIG, jobs=jobs, metrics=metrics
        )
        counters[f"jobs={jobs}"] = metrics.counters()

    for name, result in results.items():
        on_day = {str(p) for p in result.daily.prefixes_on(DAY)}
        assert delegated not in on_day, name
        for date in (START, END - datetime.timedelta(days=1)):
            assert result.daily.on(date) == memory.daily.on(date), name
        assert counters[name][counter] == rewritten, name
        for other in REWRITES:
            if other != counter:
                assert counters[name][other] == 0, name
