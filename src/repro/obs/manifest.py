"""Run manifests: one JSON artifact auditing a pipeline run.

A manifest records what a run *was* (command, configuration hash,
input fingerprints) and what it *did* (per-stage record-in/record-out
attrition, cache hits and misses, wall-clock timings, every metric the
run's :class:`~repro.obs.metrics.MetricsRegistry` accumulated).  The
stage table is the measurement-paper view: each filter of the §4
delegation pipeline appears with the records it received, the records
it passed on, and why the difference was dropped — the same per-stage
accounting careful reproductions report alongside their figures.

The attrition numbers come from the pipeline's deterministic
counters, so a parallel run and a sequential run of the same window
produce identical stage tables (only the timings differ).
"""

from __future__ import annotations

import datetime
import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import DatasetError
from repro.obs.metrics import MetricsRegistry

PathLike = Union[str, pathlib.Path]

#: Bump when the manifest layout changes incompatibly.  2: one
#: ``timers`` section whose entries carry the latency distribution
#: (the separate ``histograms`` section is gone).
MANIFEST_SCHEMA = 2


def config_hash(config: object) -> str:
    """Stable hash of a (frozen-dataclass) configuration.

    ``repr`` of a frozen dataclass is deterministic across processes
    and runs — the same property the runner's cache key relies on.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


@dataclass
class StageRecord:
    """One pipeline stage's attrition: what came in, what survived."""

    name: str
    records_in: int
    records_out: int
    dropped: Dict[str, int] = field(default_factory=dict)
    seconds: Optional[float] = None

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "dropped": dict(sorted(self.dropped.items())),
        }
        if self.seconds is not None:
            payload["seconds"] = self.seconds
        return payload


@dataclass
class RunManifest:
    """Everything needed to audit (and re-identify) one pipeline run."""

    command: str
    config: Optional[dict] = None
    config_digest: Optional[str] = None
    inputs: Dict[str, str] = field(default_factory=dict)
    stages: List[StageRecord] = field(default_factory=list)
    cache: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    metrics: Optional[MetricsRegistry] = None
    created: Optional[str] = None
    #: Quarantine accounting for degraded-mode runs (None = strict run
    #: or nothing quarantined); see ``RunManifest.attach_degradation``.
    degradation: Optional[dict] = None

    def add_stage(
        self,
        name: str,
        records_in: int,
        records_out: int,
        dropped: Optional[Dict[str, int]] = None,
        seconds: Optional[float] = None,
    ) -> StageRecord:
        stage = StageRecord(
            name=name,
            records_in=records_in,
            records_out=records_out,
            dropped=dict(dropped or {}),
            seconds=seconds,
        )
        self.stages.append(stage)
        return stage

    def add_input(self, name: str, fingerprint: str) -> None:
        self.inputs[name] = fingerprint

    def attach_degradation(self, report) -> None:
        """Record a quarantine report's accounting in the manifest.

        ``report`` is a
        :class:`~repro.ingest.quarantine.QuarantineReport` (duck-typed
        to avoid an obs → ingest dependency); an empty report attaches
        as ``None`` so pristine runs are distinguishable at a glance.
        """
        self.degradation = report.to_json() if len(report) else None

    def to_json(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "created": (
                self.created
                or datetime.datetime.now(
                    datetime.timezone.utc
                ).isoformat(timespec="seconds")
            ),
            "config": self.config,
            "config_hash": self.config_digest,
            "inputs": dict(sorted(self.inputs.items())),
            "stages": [stage.to_json() for stage in self.stages],
            "cache": dict(sorted(self.cache.items())),
            "degradation": self.degradation,
            "extra": self.extra,
            "metrics": (
                self.metrics.to_json()
                if self.metrics is not None
                else None
            ),
        }

    def write(self, path: PathLike) -> str:
        """Write the manifest as one pretty-printed JSON file."""
        path = pathlib.Path(path)
        if path.parent != pathlib.Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_json(), indent=2, sort_keys=False)
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)


def load_manifest(path: PathLike) -> dict:
    """Read a manifest JSON, validating the envelope.

    Returns the raw dict (the pretty-printer and tests work on the
    serialized form; the dataclasses above are for *writing*).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise DatasetError(f"no manifest at {path}")
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(payload, dict) or "schema" not in payload:
        raise DatasetError(f"{path} is not a run manifest")
    if payload["schema"] != MANIFEST_SCHEMA:
        raise DatasetError(
            f"unsupported manifest schema {payload['schema']!r} "
            f"(expected {MANIFEST_SCHEMA})"
        )
    return payload


def render_manifest(payload: dict) -> str:
    """Human-readable view of a loaded manifest (``repro manifest``)."""
    from repro.analysis.report import render_table

    lines: List[str] = []
    lines.append(f"run manifest: {payload.get('command', '?')}")
    lines.append(f"created: {payload.get('created', '?')}")
    digest = payload.get("config_hash")
    if digest:
        lines.append(f"config hash: {digest[:16]}…")
    inputs = payload.get("inputs") or {}
    for name, fingerprint in sorted(inputs.items()):
        lines.append(f"input {name}: {fingerprint[:16]}…")
    cache = payload.get("cache") or {}
    if cache:
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        total = hits + misses
        rate = f" ({hits / total:.0%} hit rate)" if total else ""
        lines.append(f"cache: {hits} hits, {misses} misses{rate}")
    stages = payload.get("stages") or []
    if stages:
        rows = []
        for stage in stages:
            records_in = stage.get("records_in", 0)
            records_out = stage.get("records_out", 0)
            dropped = stage.get("dropped") or {}
            dropped_text = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(dropped.items())
            )
            seconds = stage.get("seconds")
            rows.append([
                stage.get("name", "?"),
                records_in,
                records_out,
                dropped_text or "-",
                f"{seconds:.3f}" if seconds is not None else "-",
            ])
        lines.append("")
        lines.append(render_table(
            ["stage", "in", "out", "dropped", "seconds"],
            rows,
            title="per-stage attrition",
        ))
    degradation = payload.get("degradation")
    if degradation:
        total = degradation.get("quarantined_total", 0)
        lines.append("")
        lines.append(f"DEGRADED RUN: {total} records quarantined")
        by_source = degradation.get("by_source") or {}
        if by_source:
            lines.append(render_table(
                ["source", "quarantined"],
                sorted(by_source.items()),
                title="quarantine by source",
            ))
    metrics = payload.get("metrics") or {}
    timers = metrics.get("timers") or {}
    if timers:
        rows = [
            [
                name,
                stats["count"],
                f"{stats['total_seconds']:.3f}",
                f"{stats['mean_seconds']:.4f}",
                f"{stats['p99_seconds']:.4f}",
            ]
            for name, stats in sorted(timers.items())
        ]
        lines.append("")
        lines.append(render_table(
            ["timer", "count", "total_s", "mean_s", "p99_s"],
            rows,
            title="timers",
        ))
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        lines.append(render_table(
            ["counter", "value"],
            sorted(counters.items()),
            title="counters",
        ))
    gauges = metrics.get("gauges") or {}
    if gauges:
        lines.append("")
        lines.append(render_table(
            ["gauge", "value"],
            [[name, f"{value:g}"] for name, value in sorted(gauges.items())],
            title="gauges",
        ))
    return "\n".join(lines)

