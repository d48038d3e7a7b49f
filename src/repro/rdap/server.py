"""The RDAP server: RFC 7483-shaped responses over a WHOIS database."""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import RdapNotFoundError, RdapRateLimitError
from repro.netbase.prefix import IPv4Prefix, format_address
from repro.obs.metrics import NULL, MetricsRegistry
from repro.whois.database import WhoisDatabase
from repro.whois.inetnum import InetnumObject


class RateLimiter:
    """A token bucket driven by an explicit clock.

    The simulation supplies monotonically non-decreasing timestamps (in
    seconds); real-time behaviour is a special case where callers pass
    ``time.monotonic()``.  ``capacity`` tokens refill at ``rate`` tokens
    per second.
    """

    def __init__(self, rate: float, capacity: int):
        if rate <= 0 or capacity <= 0:
            raise ValueError("rate and capacity must be positive")
        self._rate = float(rate)
        self._capacity = float(capacity)
        self._tokens = float(capacity)
        self._last_time: Optional[float] = None

    def try_acquire(self, now: float) -> bool:
        """Consume one token at time ``now``; False when exhausted."""
        if self._last_time is not None:
            if now < self._last_time:
                raise ValueError("clock moved backwards")
            self._tokens = min(
                self._capacity,
                self._tokens + (now - self._last_time) * self._rate,
            )
        self._last_time = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def seconds_until_token(self) -> float:
        """How long a client must wait for the next token."""
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self._rate

    @property
    def last_time(self) -> Optional[float]:
        """Timestamp of the last ``try_acquire`` call, if any."""
        return self._last_time

    def refilled_at(self, now: float) -> bool:
        """True when the bucket would be full again at time ``now``.

        A limiter in this state is indistinguishable from a freshly
        constructed one, so evicting it never changes behaviour.
        """
        if self._last_time is None:
            return True
        elapsed = max(0.0, now - self._last_time)
        return self._tokens + elapsed * self._rate >= self._capacity


class RdapServer:
    """Serves RDAP ``ip`` lookups for one RIR's WHOIS database.

    Responses follow the RFC 7483 ``ip network`` object class closely
    enough that parsers written for real endpoints would work:
    ``objectClassName``, ``handle``, ``startAddress``, ``endAddress``,
    ``type``, ``parentHandle``, ``entities``.

    RDAP has no wildcard or range queries — exactly the limitation that
    forces the paper to seed queries from a WHOIS snapshot.
    """

    #: Rate checks between idle-limiter sweeps (amortizes eviction).
    SWEEP_INTERVAL = 256

    def __init__(
        self,
        database: WhoisDatabase,
        *,
        rate_limit_per_second: float = 10.0,
        burst: int = 20,
        max_clients: int = 4096,
        metrics: MetricsRegistry = NULL,
    ):
        if max_clients < 1:
            raise ValueError("max_clients must be positive")
        self._database = database
        self._rate = rate_limit_per_second
        self._burst = burst
        self._max_clients = max_clients
        self._metrics = metrics
        # Insertion order doubles as least-recently-seen order: every
        # rate check re-inserts the client's limiter at the end.
        self._limiters: Dict[str, RateLimiter] = {}
        self._checks_since_sweep = 0
        self.query_count = 0
        self.throttled_count = 0
        self.evicted_count = 0

    @property
    def database(self) -> WhoisDatabase:
        return self._database

    def set_metrics(self, metrics: MetricsRegistry) -> None:
        """Route limiter/query accounting into ``metrics``."""
        self._metrics = metrics

    # -- rate limiting ---------------------------------------------------

    @property
    def live_limiter_count(self) -> int:
        """Per-client limiter entries currently held in memory."""
        return len(self._limiters)

    def _sweep_idle(self, now: float) -> None:
        """Evict limiter entries that no longer carry any state.

        Two passes keep the table bounded without ever penalizing an
        active client:

        - *refilled* entries — buckets that would be full again at
          ``now`` — are dropped outright; recreating one later yields
          an identical limiter, so this eviction is lossless,
        - if the table still exceeds ``max_clients`` (a flood of
          clients all mid-bucket), the least-recently-seen entries are
          dropped.  Those clients restart with a full bucket, trading
          a one-off extra burst for bounded memory.
        """
        refilled = [
            client_id
            for client_id, limiter in self._limiters.items()
            if limiter.refilled_at(now)
        ]
        for client_id in refilled:
            del self._limiters[client_id]
        overflow = len(self._limiters) - self._max_clients
        if overflow > 0:
            for client_id in list(self._limiters)[:overflow]:
                del self._limiters[client_id]
            self.evicted_count += overflow
        self.evicted_count += len(refilled)
        self._metrics.set_gauge(
            "rdap.limiters.live", float(len(self._limiters))
        )

    def check_rate(self, client_id: str, now: float) -> None:
        """Charge one query to ``client_id``'s token bucket at ``now``.

        Raises :class:`~repro.errors.RdapRateLimitError` (with a
        structured ``retry_after_seconds``) when the bucket is empty.
        Every ``SWEEP_INTERVAL`` checks, idle limiter entries are
        evicted so sustained many-client traffic cannot grow the
        per-client table without bound.
        """
        limiter = self._limiters.pop(client_id, None)
        if limiter is None:
            limiter = RateLimiter(self._rate, self._burst)
        # Re-insert at the end: dict order stays last-seen order.
        self._limiters[client_id] = limiter
        acquired = limiter.try_acquire(now)
        # Sweep only after charging this client: its bucket is no
        # longer refilled (a token was just spent at ``now``) and it
        # sits at the recently-seen end, so it can never evict itself.
        self._checks_since_sweep += 1
        if (
            self._checks_since_sweep >= self.SWEEP_INTERVAL
            or len(self._limiters) > self._max_clients
        ):
            self._checks_since_sweep = 0
            self._sweep_idle(now)
        if not acquired:
            self.throttled_count += 1
            self._metrics.inc("rdap.server.throttled")
            retry_after = limiter.seconds_until_token()
            raise RdapRateLimitError(
                f"rate limit exceeded; retry in {retry_after:.2f}s",
                retry_after_seconds=retry_after,
            )

    # -- lookups --------------------------------------------------------------

    def lookup_ip(
        self,
        prefix: IPv4Prefix,
        *,
        client_id: str = "anonymous",
        now: float = 0.0,
    ) -> Dict[str, object]:
        """RDAP ``/ip/<prefix>`` lookup.

        Returns the most-specific registered network containing
        ``prefix`` (the behaviour of real endpoints), raising
        :class:`~repro.errors.RdapNotFoundError` when nothing matches
        and :class:`~repro.errors.RdapRateLimitError` when throttled.
        """
        self.check_rate(client_id, now)
        return self.lookup_object(prefix)

    def lookup_object(self, prefix: IPv4Prefix) -> Dict[str, object]:
        """The :meth:`lookup_ip` response, with no rate accounting.

        The serving layer charges its own per-request rate check (one
        per request, shared across frontends) and then answers through
        this method, so socket responses stay byte-identical to the
        in-memory server's.
        """
        self.query_count += 1
        exact = self._database.find_exact_prefix(prefix)
        obj = exact or self._database.most_specific_containing(prefix)
        if obj is None:
            raise RdapNotFoundError(str(prefix))
        return self._render(obj)

    def _render(self, obj: InetnumObject) -> Dict[str, object]:
        parent = self._database.parent_of(obj)
        response: Dict[str, object] = {
            "objectClassName": "ip network",
            "handle": obj.handle,
            "startAddress": format_address(obj.first),
            "endAddress": format_address(obj.last),
            "ipVersion": "v4",
            "name": obj.netname,
            "type": obj.status.value,
            "country": "ZZ",
            "parentHandle": parent.handle if parent is not None else None,
            "entities": [
                {
                    "objectClassName": "entity",
                    "handle": obj.org_handle,
                    "roles": ["registrant"],
                },
                {
                    "objectClassName": "entity",
                    "handle": obj.admin_handle,
                    "roles": ["administrative"],
                },
            ],
            "rdapConformance": ["rdap_level_0"],
        }
        return response

    def __repr__(self) -> str:
        return (
            f"<RdapServer over {self._database!r}, "
            f"{self.query_count} queries served>"
        )
