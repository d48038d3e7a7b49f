"""Cross-run regression history: every manifest becomes a baseline.

A run manifest (``--metrics-out``) audits *one* run; catching the PR
that silently made Fig. 6 slower needs runs compared *over time*.
:class:`RunHistory` is the longitudinal store: an append-only JSONL
file where each line is one recorded run, condensed from its manifest
into the comparable facts —

- the run key ``check`` pairs runs by,
- per-stage / per-timer wall-clock totals,
- the §4 attrition table (records in / out / dropped per filter),
- cache hit and miss counts,
- quarantine totals from degraded runs,
- ``*.malformed`` counters (corrupt cache / shard-store entries),
- ``profile.*`` peak-memory gauges.

On top of the store sit three operations, mirrored by the ``repro
history`` CLI: ``diff`` renders what changed between two runs,
``list`` shows the trajectory, and ``check`` gates the latest run
against the latest earlier run with the same ``key`` (command, config
hash, input fingerprints, runner settings): deterministic drift exits
1, timing and peak-memory regressions exit 3.  CI records every
manifest into one history and checks it, so the benchmark trajectory
is an enforced floor.

Append-only by design: recording never rewrites existing lines, a
crash mid-append loses at most the line being written, loading skips
a truncated tail, and the next record starts on a fresh line.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import DatasetError

PathLike = Union[str, pathlib.Path]

#: Bump when the entry layout changes incompatibly.  Schema 2 added
#: the run ``key``; schema-1 entries have none and never pair.
HISTORY_SCHEMA = 2

#: Default store location (relative to the working directory).
DEFAULT_HISTORY_PATH = ".repro-history.jsonl"

#: The per-timer facts an entry keeps from a manifest's timers.
_TIMER_FACTS = ("count", "total_seconds", "mean_seconds", "p99_seconds")

#: Timers faster than this in the baseline are never regression-gated:
#: a 3 ms stage doubling is scheduler noise, not a regression.
DEFAULT_MIN_SECONDS = 0.05

#: Peak-memory gauges below this baseline are never regression-gated:
#: allocator noise dominates tiny runs, not the working set.
DEFAULT_MIN_PEAK_KB = 1024.0


def parse_percent(text: Union[str, float]) -> float:
    """``"20%"`` → 0.20; bare numbers pass through (``0.2`` → 0.2)."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        stripped = text.strip()
        try:
            if stripped.endswith("%"):
                value = float(stripped[:-1]) / 100.0
            else:
                value = float(stripped)
        except ValueError:
            raise DatasetError(
                f"not a percentage: {text!r} (use e.g. '20%' or '0.2')"
            )
    if value < 0:
        raise DatasetError(f"percentage must be >= 0 (got {text!r})")
    return value


def summarize_manifest(payload: dict) -> dict:
    """Condense a loaded manifest into one comparable history entry.

    Keeps exactly the facts ``diff``/``check`` compare; drops the
    full metric dump (the manifest itself remains the deep record).
    """
    metrics = payload.get("metrics") or {}
    timers = {
        name: {key: stats[key] for key in _TIMER_FACTS if key in stats}
        for name, stats in (metrics.get("timers") or {}).items()
    }
    stages = {
        stage.get("name", "?"): {
            "in": stage.get("records_in", 0),
            "out": stage.get("records_out", 0),
            "dropped": dict(stage.get("dropped") or {}),
        }
        for stage in (payload.get("stages") or [])
    }
    degradation = payload.get("degradation") or {}
    gauges = metrics.get("gauges") or {}
    counters = metrics.get("counters") or {}
    extra = payload.get("extra") or {}
    digest = payload.get("config_hash")
    return {
        "schema": HISTORY_SCHEMA,
        "command": payload.get("command", "?"),
        "created": payload.get("created"),
        "config_hash": digest,
        # What ``check`` pairs runs by.  A run without a config hash
        # has no identity and is never anyone's baseline.
        "key": None if digest is None else {
            "command": payload.get("command", "?"),
            "config_hash": digest,
            "inputs": dict(payload.get("inputs") or {}),
            "runner": extra.get("runner"),
        },
        "scale": extra.get("scale"),
        "seed": extra.get("seed"),
        "stages": stages,
        "timers": timers,
        "cache": dict(payload.get("cache") or {}),
        "quarantined": degradation.get("quarantined_total", 0),
        # ``spans.mismatched`` rides in the malformed map on purpose:
        # corrupted span nesting is an integrity signal like corrupt
        # cache entries, and any increase fails ``history check``.
        "malformed": {
            name: value
            for name, value in counters.items()
            if name.endswith(".malformed") or name == "spans.mismatched"
        },
        "profile": {
            name: value
            for name, value in gauges.items()
            if name.startswith("profile.")
        },
    }


def _cache_hit_rate(entry: dict) -> Optional[float]:
    cache = entry.get("cache") or {}
    total = cache.get("hits", 0) + cache.get("misses", 0)
    if total == 0:
        return None
    return cache.get("hits", 0) / total


class RunHistory:
    """The append-only JSONL store behind ``repro history``."""

    def __init__(self, path: PathLike = DEFAULT_HISTORY_PATH):
        self._path = pathlib.Path(path)

    @property
    def path(self) -> pathlib.Path:
        return self._path

    # -- reading --------------------------------------------------------

    def entries(self) -> List[dict]:
        """Every recorded run, oldest first.

        Skips blank and truncated lines (a crash mid-append loses at
        most the line being written); raises :class:`DatasetError`
        only when the file itself is unreadable.
        """
        if not self._path.exists():
            return []
        try:
            text = self._path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DatasetError(
                f"cannot read run history {self._path}: {exc}"
            ) from exc
        entries: List[dict] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "id" in entry:
                entries.append(entry)
        return entries

    def entry(self, entry_id: int) -> dict:
        for entry in self.entries():
            if entry.get("id") == entry_id:
                return entry
        raise DatasetError(
            f"no run #{entry_id} in {self._path} "
            f"(have {len(self.entries())} entries)"
        )

    def latest(self) -> dict:
        entries = self.entries()
        if not entries:
            raise DatasetError(f"run history {self._path} is empty")
        return entries[-1]

    # -- writing --------------------------------------------------------

    def record(self, manifest_payload: dict) -> dict:
        """Append one manifest as a history entry; returns the entry."""
        entries = self.entries()
        entry = summarize_manifest(manifest_payload)
        entry["id"] = (entries[-1]["id"] + 1) if entries else 1
        entry["recorded"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds")
        if self._path.parent != pathlib.Path(""):
            self._path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True) + "\n"
        with open(self._path, "a+b") as handle:
            # A crash mid-append leaves a tail with no newline: start
            # on a fresh line rather than gluing this entry onto it.
            if handle.tell():
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = "\n" + line
            handle.write(line.encode("utf-8"))
        return entry

    # -- comparison -----------------------------------------------------

    def diff(self, baseline_id: int, candidate_id: int) -> str:
        return render_diff(
            self.entry(baseline_id), self.entry(candidate_id)
        )

    def check(
        self,
        *,
        max_regress: float = 0.20,
        min_seconds: float = DEFAULT_MIN_SECONDS,
    ) -> Tuple[Optional[dict], List[str], List[str]]:
        """Gate the latest run against the latest earlier run of its key.

        Returns ``(baseline, drift, findings)``: :func:`find_drift`
        and :func:`find_regressions` of the pair, or ``(None, [], [])``
        when no earlier entry shares the latest entry's run key.
        """
        candidate = self.latest()
        key = candidate.get("key")
        earlier = [
            entry for entry in self.entries()[:-1]
            if key is not None and entry.get("key") == key
        ]
        if not earlier:
            return None, [], []
        baseline = earlier[-1]
        return baseline, find_drift(baseline, candidate), find_regressions(
            baseline, candidate,
            max_regress=max_regress, min_seconds=min_seconds,
        )


def render_list(entries: List[dict]) -> str:
    """The ``repro history list`` table."""
    from repro.analysis.report import render_table

    if not entries:
        return "run history is empty"
    rows = []
    for entry in entries:
        wall = (entry.get("timers") or {}).get("runner", {})
        hit_rate = _cache_hit_rate(entry)
        digest = entry.get("config_hash") or ""
        rows.append([
            entry.get("id", "?"),
            entry.get("recorded", "?"),
            entry.get("command", "?"),
            digest[:12] or "-",
            f"{wall.get('total_seconds'):.2f}"
            if wall.get("total_seconds") is not None else "-",
            f"{hit_rate:.0%}" if hit_rate is not None else "-",
            entry.get("quarantined", 0) or "-",
        ])
    return render_table(
        ["id", "recorded", "command", "config", "runner_s",
         "cache_hit", "quarantined"],
        rows,
        title="run history",
    )


def render_diff(baseline: dict, candidate: dict) -> str:
    """Human-readable comparison of two history entries."""
    from repro.analysis.report import render_table

    lines: List[str] = []
    lines.append(
        f"run #{baseline.get('id')} ({baseline.get('command')}, "
        f"{baseline.get('recorded')}) vs "
        f"run #{candidate.get('id')} ({candidate.get('command')}, "
        f"{candidate.get('recorded')})"
    )
    same_config = (
        baseline.get("config_hash") is not None
        and baseline.get("config_hash") == candidate.get("config_hash")
    )
    lines.append(
        "config: identical"
        if same_config
        else "config: DIFFERENT (timings compare across configs; "
             "attrition is expected to move)"
    )

    rows = []
    base_timers: Dict[str, dict] = baseline.get("timers") or {}
    cand_timers: Dict[str, dict] = candidate.get("timers") or {}
    for name in sorted(set(base_timers) | set(cand_timers)):
        a = base_timers.get(name, {}).get("total_seconds")
        b = cand_timers.get(name, {}).get("total_seconds")
        if a is None or b is None:
            delta = "added" if a is None else "removed"
        elif a > 0:
            delta = f"{(b - a) / a:+.1%}"
        else:
            delta = "-"
        p99_a = base_timers.get(name, {}).get("p99_seconds")
        p99_b = cand_timers.get(name, {}).get("p99_seconds")
        rows.append([
            name,
            f"{a:.3f}" if a is not None else "-",
            f"{b:.3f}" if b is not None else "-",
            delta,
            f"{p99_a:.4f}" if p99_a is not None else "-",
            f"{p99_b:.4f}" if p99_b is not None else "-",
        ])
    if rows:
        lines.append("")
        lines.append(render_table(
            ["timer", "baseline_s", "candidate_s", "delta",
             "p99_base", "p99_cand"],
            rows,
            title="stage timings",
        ))

    rows = []
    base_stages: Dict[str, dict] = baseline.get("stages") or {}
    cand_stages: Dict[str, dict] = candidate.get("stages") or {}
    for name in sorted(set(base_stages) | set(cand_stages)):
        a = base_stages.get(name)
        b = cand_stages.get(name)
        if a is None or b is None:
            rows.append([
                name, "-", "-",
                "added" if a is None else "removed",
            ])
            continue
        changed = (
            a.get("in") != b.get("in")
            or a.get("out") != b.get("out")
            or (a.get("dropped") or {}) != (b.get("dropped") or {})
        )
        rows.append([
            name,
            f"{a.get('in')} -> {a.get('out')}",
            f"{b.get('in')} -> {b.get('out')}",
            "CHANGED" if changed else "same",
        ])
    if rows:
        lines.append("")
        lines.append(render_table(
            ["stage", "baseline in->out", "candidate in->out", "attrition"],
            rows,
            title="stage attrition",
        ))

    rows = []
    base_rate = _cache_hit_rate(baseline)
    cand_rate = _cache_hit_rate(candidate)
    rows.append([
        "cache hit rate",
        f"{base_rate:.0%}" if base_rate is not None else "-",
        f"{cand_rate:.0%}" if cand_rate is not None else "-",
    ])
    rows.append([
        "quarantined records",
        baseline.get("quarantined", 0),
        candidate.get("quarantined", 0),
    ])
    base_malformed: Dict[str, int] = baseline.get("malformed") or {}
    cand_malformed: Dict[str, int] = candidate.get("malformed") or {}
    for name in sorted(set(base_malformed) | set(cand_malformed)):
        rows.append([
            name,
            base_malformed.get(name, 0),
            cand_malformed.get(name, 0),
        ])
    base_profile: Dict[str, float] = baseline.get("profile") or {}
    cand_profile: Dict[str, float] = candidate.get("profile") or {}
    for name in sorted(set(base_profile) | set(cand_profile)):
        a = base_profile.get(name)
        b = cand_profile.get(name)
        rows.append([
            name,
            f"{a:.0f} kB" if a is not None else "-",
            f"{b:.0f} kB" if b is not None else "-",
        ])
    lines.append("")
    lines.append(render_table(
        ["metric", "baseline", "candidate"],
        rows,
        title="cache / quarantine / memory",
    ))
    return "\n".join(lines)


def find_drift(baseline: dict, candidate: dict) -> List[str]:
    """The deterministic findings, which fail the build (exit 1).

    - any increase in quarantined records;
    - any increase in a ``*.malformed`` counter (corrupt cache or
      shard-store entries) or in ``spans.mismatched`` (corrupted span
      nesting) — a corruption storm, not a perf issue;
    - for runs with one run key: any drift in the attrition table
      (sequential ≡ parallel determinism means these numbers must
      never move for the same config, inputs and runner settings).
    """
    regressions: List[str] = []
    base_quarantined = baseline.get("quarantined", 0) or 0
    cand_quarantined = candidate.get("quarantined", 0) or 0
    if cand_quarantined > base_quarantined:
        regressions.append(
            f"quarantined records: {base_quarantined} -> "
            f"{cand_quarantined}"
        )
    base_malformed: Dict[str, int] = baseline.get("malformed") or {}
    cand_malformed: Dict[str, int] = candidate.get("malformed") or {}
    for name in sorted(set(base_malformed) | set(cand_malformed)):
        a = base_malformed.get(name, 0) or 0
        b = cand_malformed.get(name, 0) or 0
        if b > a:
            regressions.append(f"{name} entries: {a} -> {b}")
    key = baseline.get("key")
    if key is not None and key == candidate.get("key"):
        base_stages = baseline.get("stages") or {}
        cand_stages = candidate.get("stages") or {}
        for name in sorted(set(base_stages) | set(cand_stages)):
            if base_stages.get(name) != cand_stages.get(name):
                regressions.append(
                    f"attrition drift at {name!r} with identical run "
                    "key (determinism regression)"
                )
    return regressions


def find_regressions(
    baseline: dict,
    candidate: dict,
    *,
    max_regress: float = 0.20,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> List[str]:
    """The ``history check`` gate; returns one line per finding.

    :func:`find_drift`'s deterministic findings come first; the
    timing and memory findings after them only warn (exit 3):

    - any timer present in both runs whose baseline total is at least
      ``min_seconds`` and whose candidate total exceeds the baseline
      by more than ``max_regress`` (a fraction, e.g. ``0.20``);
    - any timer whose recorded **p99** regressed the same way — the
      tail gate: baseline p99 at least ``min_seconds`` (the noise
      floor), candidate p99 beyond ``max_regress``.  Quantiles are
      exact-bucket (factor-2 bounds), so a flagged p99 moved at least
      one whole bucket — never float jitter;
    - any ``profile.*.peak_kb`` gauge whose baseline is at least
      :data:`DEFAULT_MIN_PEAK_KB` and whose candidate exceeds the
      baseline by more than ``max_regress`` (the out-of-core memory
      floor).
    """
    regressions = find_drift(baseline, candidate)
    base_timers: Dict[str, dict] = baseline.get("timers") or {}
    cand_timers: Dict[str, dict] = candidate.get("timers") or {}
    for name in sorted(set(base_timers) & set(cand_timers)):
        a = base_timers[name].get("total_seconds", 0.0)
        b = cand_timers[name].get("total_seconds", 0.0)
        if a < min_seconds:
            continue
        if b > a * (1.0 + max_regress):
            regressions.append(
                f"timer {name}: {a:.3f}s -> {b:.3f}s "
                f"({(b - a) / a:+.1%}, limit {max_regress:+.0%})"
            )
    for name in sorted(set(base_timers) & set(cand_timers)):
        a = base_timers[name].get("p99_seconds")
        b = cand_timers[name].get("p99_seconds")
        if a is None or b is None or a < min_seconds:
            continue
        if b > a * (1.0 + max_regress):
            regressions.append(
                f"timer {name} p99: {a:.3f}s -> {b:.3f}s "
                f"({(b - a) / a:+.1%}, limit {max_regress:+.0%})"
            )
    base_profile: Dict[str, float] = baseline.get("profile") or {}
    cand_profile: Dict[str, float] = candidate.get("profile") or {}
    for name in sorted(set(base_profile) & set(cand_profile)):
        if not name.endswith(".peak_kb"):
            continue
        a = base_profile[name]
        b = cand_profile[name]
        if a < DEFAULT_MIN_PEAK_KB:
            continue
        if b > a * (1.0 + max_regress):
            regressions.append(
                f"gauge {name}: {a:.0f} kB -> {b:.0f} kB "
                f"({(b - a) / a:+.1%}, limit {max_regress:+.0%})"
            )
    return regressions
