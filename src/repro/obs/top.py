"""``repro obs top`` — a polling live dashboard for a running server.

Scrapes ``/health`` and ``/metrics`` (the JSON document) from a
:class:`~repro.serve.server.ReproServeServer` every ``--interval``
seconds and renders a terminal dashboard: the sliding-window SLO
rollup (qps / error rate / p99 over the trailing 1 m and 5 m) plus a
per-route table with request counts, instantaneous qps (counter deltas
between polls), and the exact-bucket latency quantiles the server's
timers carry.

Everything here is injectable (fetcher, clock, sleep, output sink) so
the refresh loop is unit-testable without a socket; the CLI wires in
the real :class:`~repro.serve.client.HttpSession`-based fetcher.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError

#: ANSI clear-screen + home, prefixed to each frame unless --no-clear.
CLEAR = "\x1b[2J\x1b[H"

#: Timer names surfaced as dashboard rows, most aggregated first.
#: Route timers (``serve.http.route.*``) are discovered
#: dynamically and appended after these.
_TOP_LEVEL_ROWS = (
    ("whois", "serve.whois.request"),
    ("http", "serve.http.request"),
)


def parse_target(target: str) -> Tuple[str, int]:
    """``host:port`` or ``http://host:port[/...]`` → ``(host, port)``."""
    text = target.strip()
    for prefix in ("http://", "https://"):
        if text.startswith(prefix):
            text = text[len(prefix):]
    text = text.split("/", 1)[0]
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"obs top: target {target!r} is not host:port or a URL"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            f"obs top: bad port in target {target!r}"
        ) from None
    return host, port


def fetch_snapshot(host: str, port: int) -> Tuple[dict, dict]:
    """One poll: ``(health, metrics)`` documents from the server."""
    import asyncio

    from repro.serve.client import HttpSession

    async def _go() -> Tuple[dict, dict]:
        session = HttpSession(host, port, client_id="obs-top")
        await session.connect()
        try:
            documents = []
            for path in ("/health", "/metrics"):
                status, _headers, body = await session.get(path)
                if status != 200:
                    raise ReproError(
                        f"obs top: GET {path} answered {status}"
                    )
                documents.append(json.loads(body.decode("utf-8")))
            return documents[0], documents[1]
        finally:
            await session.close()

    try:
        return asyncio.run(_go())
    except (ConnectionError, OSError) as exc:
        raise ReproError(
            f"obs top: cannot reach {host}:{port}: {exc}"
        ) from exc


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}"


def render_dashboard(
    health: dict,
    metrics: dict,
    *,
    previous: Optional[dict] = None,
    elapsed: float = 0.0,
) -> str:
    """One dashboard frame as text.

    ``previous`` is the prior poll's metrics document; counter deltas
    divided by ``elapsed`` give the instantaneous qps column (blank on
    the first frame).
    """
    from repro.analysis.report import render_table

    window = health.get("window") or {}
    slo_rows = []
    for key in ("1m", "5m"):
        snap = window.get(key) or {}
        slo_rows.append([
            key,
            snap.get("requests", 0),
            f"{snap.get('qps', 0.0):.2f}",
            f"{snap.get('errorRate', 0.0):.4f}",
            _fmt_ms(snap.get("p99Seconds", 0.0)),
        ])
    status = health.get("status", "?")
    uptime = health.get("uptimeSeconds", 0.0)
    live = (health.get("connections") or {}).get("live", 0)
    frame = [render_table(
        ["window", "requests", "qps", "error rate", "p99 (ms)"],
        slo_rows,
        title=(
            f"repro obs top — {status}, up {uptime:.0f}s, "
            f"{live} live connection(s)"
        ),
    )]

    timers = metrics.get("timers") or {}
    rows = []
    names = list(_TOP_LEVEL_ROWS)
    route_prefix = "serve.http.route."
    names.extend(
        (name[len(route_prefix):], name)
        for name in sorted(timers)
        if name.startswith(route_prefix)
    )
    previous_timers = (previous or {}).get("timers") or {}
    for label, name in names:
        timer = timers.get(name)
        if not timer or not timer["count"]:
            continue
        count = timer["count"]
        if elapsed > 0:
            before = (previous_timers.get(name) or {}).get("count", 0)
            qps = f"{max(0, count - before) / elapsed:.2f}"
        else:
            qps = "-"
        rows.append([
            label,
            count,
            qps,
            _fmt_ms(timer["mean_seconds"]),
            _fmt_ms(timer["p50_seconds"]),
            _fmt_ms(timer["p99_seconds"]),
        ])
    if rows:
        frame.append(render_table(
            ["route", "requests", "qps", "mean (ms)",
             "p50 (ms)", "p99 (ms)"],
            rows,
            title="per-route latency (server-side histograms)",
        ))
    mismatched = (metrics.get("counters") or {}).get(
        "spans.mismatched", 0
    )
    if mismatched:
        frame.append(
            f"warning: {mismatched} mismatched span exit(s) recorded"
        )
    return "\n".join(frame)


def run_top(
    target: str,
    *,
    interval: float = 2.0,
    count: Optional[int] = None,
    clear: bool = True,
    fetch: Optional[Callable[[str, int], Tuple[dict, dict]]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    out: Callable[[str], None] = print,
) -> int:
    """The polling loop behind ``repro obs top``.

    Fetches, renders, sleeps, repeats — forever by default, or
    ``count`` frames when given (the testable/scriptable mode).
    ``KeyboardInterrupt`` exits cleanly with status 0.
    """
    if interval <= 0:
        raise ReproError(
            f"obs top: --interval must be positive (got {interval:g})"
        )
    host, port = parse_target(target)
    fetcher = fetch or fetch_snapshot
    previous: Optional[Dict] = None
    previous_at = 0.0
    frames = 0
    try:
        while count is None or frames < count:
            health, metrics = fetcher(host, port)
            now = clock()
            frame = render_dashboard(
                health,
                metrics,
                previous=previous,
                elapsed=(now - previous_at) if previous else 0.0,
            )
            out(CLEAR + frame if clear else frame)
            previous, previous_at = metrics, now
            frames += 1
            if count is None or frames < count:
                sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
