"""A polite RDAP client: pacing, retries, and query accounting.

The measurement pipeline issues one query per candidate ``inetnum``.
Against a rate-limited server the client must pace itself and back off
on throttling; this client does both against a *virtual clock* so the
whole interaction stays deterministic and instant in tests.
"""

from __future__ import annotations

import logging

from typing import Dict, Optional

from repro.errors import (
    RdapError,
    RdapNotFoundError,
    RdapRateLimitError,
    RdapTimeoutError,
)
from repro.ingest.backoff import BackoffPolicy
from repro.netbase.prefix import IPv4Prefix
from repro.obs.metrics import NULL, MetricsRegistry
from repro.rdap.server import RdapServer

logger = logging.getLogger(__name__)


class VirtualClock:
    """A clock the client advances instead of sleeping."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds


class RdapClient:
    """Client for one RDAP server with retry/backoff behaviour.

    Parameters
    ----------
    server:
        The :class:`~repro.rdap.server.RdapServer` to query.
    client_id:
        Identity used by the server's per-client rate limiter.
    pace_seconds:
        Idle time inserted between queries (politeness pacing).
    max_retries:
        Retries after throttling/timeouts before giving up.
    backoff_seconds:
        Initial backoff, doubled per retry up to ``max_backoff_seconds``.
    max_backoff_seconds:
        Cap on a single backoff delay (the uncapped doubling used to
        push the clock out unboundedly on long throttling episodes).
    backoff:
        A full :class:`~repro.ingest.backoff.BackoffPolicy`; overrides
        ``backoff_seconds``/``max_backoff_seconds`` when given.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; receives
        ``rdap.queries`` / ``rdap.throttles`` / ``rdap.retries`` /
        ``rdap.not_found`` alongside the instance counters.
    """

    def __init__(
        self,
        server: RdapServer,
        *,
        client_id: str = "measurement",
        pace_seconds: float = 0.05,
        max_retries: int = 5,
        backoff_seconds: float = 0.5,
        max_backoff_seconds: float = 30.0,
        backoff: Optional[BackoffPolicy] = None,
        clock: Optional[VirtualClock] = None,
        metrics: MetricsRegistry = NULL,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._server = server
        self._client_id = client_id
        self._pace = pace_seconds
        self._max_retries = max_retries
        self._backoff = backoff or BackoffPolicy(
            initial_seconds=backoff_seconds,
            max_backoff_seconds=max(max_backoff_seconds, backoff_seconds),
        )
        self._clock = clock or VirtualClock()
        self._metrics = metrics
        self.queries_sent = 0
        self.throttle_events = 0
        self.not_found_count = 0

    def set_metrics(self, metrics: MetricsRegistry) -> None:
        """Route query accounting into ``metrics`` (no-op default)."""
        self._metrics = metrics

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    def lookup_ip(self, prefix: IPv4Prefix) -> Optional[Dict[str, object]]:
        """Query ``/ip/<prefix>``; None when the server has no object.

        Raises :class:`~repro.errors.RdapError` if throttling or
        timeouts persist past ``max_retries``.  Backoff delays follow
        the capped :class:`~repro.ingest.backoff.BackoffPolicy`.
        """
        for attempt in range(self._max_retries + 1):
            self._clock.sleep(self._pace)
            self.queries_sent += 1
            self._metrics.inc("rdap.queries")
            if attempt > 0:
                self._metrics.inc("rdap.retries")
            try:
                return self._server.lookup_ip(
                    prefix,
                    client_id=self._client_id,
                    now=self._clock.now(),
                )
            except RdapNotFoundError:
                self.not_found_count += 1
                self._metrics.inc("rdap.not_found")
                return None
            except RdapTimeoutError:
                self._metrics.inc("rdap.timeouts")
                delay = self._backoff.delay(attempt, key=str(prefix))
                logger.warning(
                    "timeout querying %s (attempt %d/%d); backing "
                    "off %.2fs", prefix, attempt + 1,
                    self._max_retries + 1, delay,
                )
                if attempt == self._max_retries:
                    break
                self._clock.sleep(delay)
            except RdapRateLimitError as exc:
                self.throttle_events += 1
                self._metrics.inc("rdap.throttles")
                delay = self._backoff.delay(attempt, key=str(prefix))
                # The server's structured hint is authoritative when it
                # asks for *more* patience than the local backoff; a
                # shorter hint never cuts the jittered pacing short,
                # and the policy's cap still bounds the wait (an
                # uncapped hint would stall the clock for hours on a
                # near-empty refill rate).
                if exc.retry_after_seconds is not None:
                    delay = max(delay, min(
                        exc.retry_after_seconds,
                        self._backoff.max_backoff_seconds,
                    ))
                logger.warning(
                    "throttled querying %s (attempt %d/%d); backing "
                    "off %.2fs", prefix, attempt + 1,
                    self._max_retries + 1, delay,
                )
                if attempt == self._max_retries:
                    break
                self._clock.sleep(delay)
        self._metrics.inc("rdap.gave_up")
        raise RdapError(
            f"gave up on {prefix} after {self._max_retries} retries"
        )

    def parent_handle(self, prefix: IPv4Prefix) -> Optional[str]:
        """Convenience: the ``parentHandle`` for ``prefix``, if any."""
        response = self.lookup_ip(prefix)
        if response is None:
            return None
        parent = response.get("parentHandle")
        return str(parent) if parent is not None else None

    def __repr__(self) -> str:
        return (
            f"<RdapClient {self._client_id}: {self.queries_sent} queries, "
            f"{self.throttle_events} throttles>"
        )
