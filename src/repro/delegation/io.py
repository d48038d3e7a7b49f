"""Persistence for inference results.

Long inference runs (Fig. 6 spans 883 days) should not have to be
recomputed to be re-analyzed.  The JSONL format stores one day per
line — date plus the delegation keys observed — and round-trips
losslessly through :class:`~repro.delegation.model.DailyDelegations`.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import pathlib
from typing import Dict, Tuple, Union

from repro.delegation.model import (
    DailyDelegations,
    DelegationKey,
    iter_quads,
)
from repro.errors import DatasetError
from repro.netbase.prefix import IPv4Prefix


def canonical_json(payload: object) -> str:
    """The one canonical JSON form content addresses are taken over.

    Sorted keys, no whitespace: the same logical payload always
    serializes to the same bytes, across processes and Python
    versions.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload: object) -> str:
    """sha256 hex digest of the canonical JSON form of ``payload``.

    The content-address primitive behind the shard store's input keys
    and the runner's per-day result keys, so one definition of "same
    payload" governs every on-disk artifact.
    """
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def key_from_json(raw: object) -> DelegationKey:
    """JSON ``[str(P'), S, T]`` → ``(P', S, T)``; raises
    :class:`DatasetError`."""
    if not isinstance(raw, list) or len(raw) != 3:
        raise DatasetError(f"malformed delegation key: {raw!r}")
    prefix_text, delegator, delegatee = raw
    return (
        IPv4Prefix.parse(str(prefix_text)),
        int(delegator),
        int(delegatee),
    )


def write_daily_delegations(
    daily: DailyDelegations,
    path: Union[str, pathlib.Path],
) -> str:
    """Write one JSON object per day; returns the path.

    Each day lists its keys as ``[str(P'), S, T]``, sorted in that
    form, read straight off the day's packed column.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    texts: Dict[Tuple[int, int], str] = {}
    with open(path, "w", encoding="utf-8") as handle:
        for date in daily.dates():
            keys = []
            for network, length, delegator, delegatee in iter_quads(
                daily.column(date)
            ):
                text = texts.get((network, length))
                if text is None:
                    text = texts[network, length] = str(
                        IPv4Prefix(network, length)
                    )
                keys.append([text, delegator, delegatee])
            keys.sort()
            handle.write(json.dumps({
                "date": date.isoformat(),
                "delegations": keys,
            }) + "\n")
    return str(path)


def read_daily_delegations(
    path: Union[str, pathlib.Path]
) -> DailyDelegations:
    """Read a JSONL file written by :func:`write_daily_delegations`."""
    daily = DailyDelegations()
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                date = datetime.date.fromisoformat(str(payload["date"]))
                keys = [
                    key_from_json(raw)
                    for raw in payload["delegations"]
                ]
            except (KeyError, ValueError, TypeError) as exc:
                raise DatasetError(
                    f"bad delegations line {line_number}: {exc}"
                ) from exc
            daily.record(date, keys)
    return daily
